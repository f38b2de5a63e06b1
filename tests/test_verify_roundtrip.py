"""Round-trip: record a live controller trace, replay it offline.

Closes the loop between the two verification layers: a simulation run
with ``record_commands=True`` produces the exact command sequence the
controller issued; replaying it from scratch through
:class:`~repro.dram.tracecheck.TraceChecker` must find zero violations,
and the replay's derived statistics (command mix, data beats, refresh
count) must agree with the statistics the live run reported.  Warm-up
is zero throughout so the recorded log and the measured counters cover
the same cycles.
"""

import random

import pytest

from repro.dram.tracecheck import TraceChecker, check_controller_log
from repro.verify.fuzz import build_simulator, gen_sim_case


def run_recorded(params, backend="event"):
    params = {**params, "sim": {**params["sim"], "warmup_cycles": 0}}
    simulator = build_simulator(
        params, backend=backend, record_commands=True
    )
    result = simulator.run()
    return simulator, result


SEEDS = [f"roundtrip:{i}" for i in range(8)]


class TestTraceRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recorded_trace_replays_clean(self, seed):
        params = gen_sim_case(random.Random(seed))
        simulator, _ = run_recorded(params)
        report = check_controller_log(simulator.controller)
        assert report.clean, report.summary()

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_replay_statistics_match_live_statistics(self, seed):
        params = gen_sim_case(random.Random(seed))
        simulator, result = run_recorded(params)
        report = check_controller_log(simulator.controller)

        # Command mix: the replay counts exactly what the live run
        # counted (zero warm-up, so the log covers the measured window).
        assert report.command_counts == result.commands
        assert report.command_counts["REF"] == result.refreshes
        assert report.commands == len(simulator.controller.command_log)

        # Data movement: every column command moves one burst; requests
        # still in flight at simulation end were issued but not retired,
        # so the live payload figure never exceeds the replay's.
        burst = simulator.device.timing.burst_length
        word_bits = simulator.device.organization.word_bits
        columns = report.command_counts["RD"] + report.command_counts["WR"]
        assert report.data_beats == columns * burst
        assert result.data_bits_transferred <= report.data_beats * word_bits
        assert (
            result.data_bits_transferred
            == result.requests_completed * burst * word_bits
        )

    def test_naive_and_fast_logs_are_the_same_trace(self):
        params = gen_sim_case(random.Random("roundtrip:paths"))
        fast_sim, _ = run_recorded(params, backend="event")
        naive_sim, _ = run_recorded(params, backend="cycle")
        assert (
            fast_sim.controller.command_log
            == naive_sim.controller.command_log
        )

    def test_checker_flags_a_tampered_trace(self):
        # Sanity that the replay is a real referee: re-issuing the first
        # ACTIVATE immediately after itself is a tRC violation.
        from dataclasses import replace

        from repro.dram.commands import CommandType

        params = gen_sim_case(random.Random("roundtrip:tamper"))
        simulator, _ = run_recorded(params)
        log = list(simulator.controller.command_log)
        acts = [c for c in log if c.kind is CommandType.ACTIVATE]
        if not acts:
            pytest.skip("trace has no ACTIVATE to duplicate")
        first = acts[0]
        index = log.index(first)
        log.insert(index + 1, replace(first, cycle=first.cycle + 1))
        report = TraceChecker(
            organization=simulator.device.organization,
            timing=simulator.device.timing,
        ).check(log)
        assert not report.clean
