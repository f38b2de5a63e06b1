"""Edge cases at the event-engine x refresh boundary.

The riskiest interaction in the event engine's skipping: an idle span
the engine wants to jump over that *contains a refresh deadline*.  The
skip target must be capped at the scheduler's quiescent point so the
controller wakes up exactly when refresh is due — never a cycle late.
These tests pin the off-by-one surface: deadlines strictly inside a
skipped window, the quiescent cycle landing exactly on the deadline
(integer and fractional intervals), and bit-identity with the per-cycle
loop across a retention sweep.  A spy on ``EventEngine._step`` proves
the engine really skipped.
"""

import math

import pytest

from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import PC100_TIMING
from repro.sim.event_engine import EventEngine
from repro.verify.differential import result_fingerprint
from repro.verify.fuzz import build_simulator


def idle_params(retention_cycles, cycles=900, rate=0.004, n_rows=16):
    """A nearly idle workload whose refresh interval is
    ``retention_cycles / n_rows`` cycles: small enough that many
    deadlines fall inside the long idle gaps between requests."""
    clock_ns = 10.0
    return {
        "timing": {
            "clock_period_ns": clock_ns,
            "t_rcd": 2,
            "t_cas": 2,
            "t_rp": 2,
            "t_ras": 4,
            "t_rc": 6,
            "t_rrd": 1,
            "t_wr": 1,
            "t_rfc": 5,
            "burst_length": 2,
            "t_turnaround": 1,
        },
        "organization": {
            "n_banks": 2,
            "n_rows": n_rows,
            "page_bits": 512,
            "word_bits": 16,
        },
        "scheme": "row:bank:col",
        "controller": {
            "window_size": 4,
            "fifo_capacity": 4,
            "refresh_enabled": True,
            "refresh_retention_s": retention_cycles * clock_ns * 1e-9,
        },
        "sim": {"cycles": cycles, "warmup_cycles": 0},
        "clients": [
            {
                "name": "c0",
                "pattern": {"kind": "sequential", "base": 0, "length": 512},
                "rate": rate,
                "read_fraction": 1.0,
                "seed": 1,
            }
        ],
    }


@pytest.fixture
def stepped(call_cycles):
    """Cycles the event engine actually stepped (the rest it skipped)."""
    return call_cycles(EventEngine, "_step")


def fingerprints(params):
    naive = build_simulator(params, backend="cycle")
    fast = build_simulator(params)
    naive_result = naive.run()
    fast_result = fast.run()
    assert fast.backend_used == "event"
    return (
        result_fingerprint(naive_result),
        result_fingerprint(fast_result),
        fast,
    )


class TestDeadlineInsideSkippedWindow:
    def test_refresh_fires_despite_long_idle_skips(self, stepped):
        # Interval of 100 cycles, requests ~250 cycles apart: most
        # refresh deadlines sit strictly inside skipped idle windows.
        params = idle_params(retention_cycles=1600)
        naive_fp, fast_fp, fast = fingerprints(params)
        assert naive_fp == fast_fp
        assert fast.config.cycles - len(stepped) > 100
        result = build_simulator(params).run()
        assert result.refreshes >= 5

    def test_engine_wakes_exactly_at_each_refresh(self, stepped):
        # Every refresh must issue exactly at its deadline, on a cycle
        # the engine stepped: a skip that overshoots the deadline would
        # issue it late.
        params = idle_params(retention_cycles=1600, rate=0.0005)
        simulator = build_simulator(params, record_commands=True)
        simulator.run()
        refreshes = [
            command.cycle
            for command in simulator.controller.command_log
            if command.kind.value == "REF"
        ]
        assert len(refreshes) >= 5
        assert set(refreshes) <= set(stepped)
        interval = simulator.controller._refresh.interval_cycles
        for index, cycle in enumerate(refreshes):
            assert cycle == math.ceil(index * interval)

    @pytest.mark.parametrize(
        "retention_cycles", [130, 399, 400, 1000, 4096, 9999]
    )
    def test_retention_sweep_is_bit_identical(self, retention_cycles):
        # Odd intervals produce fractional due cycles; powers of two
        # and round numbers produce exact integer deadlines.  All must
        # agree with the per-cycle loop.
        naive_fp, fast_fp, _ = fingerprints(
            idle_params(retention_cycles=retention_cycles)
        )
        assert naive_fp == fast_fp


class TestQuiescentExactlyAtDeadline:
    def make(self, n_rows=8, retention_cycles=800.0):
        return RefreshScheduler(
            timing=PC100_TIMING,
            n_rows_total=n_rows,
            retention_s=retention_cycles * PC100_TIMING.clock_period_ns
            * 1e-9,
        )

    def test_due_exactly_at_quiescent_cycle(self):
        # Pin the boundary with an exact integer deadline: quiescent
        # lands on it dead-on, and due() flips exactly there.
        scheduler = self.make()
        scheduler._next_due_cycle = 100.0
        quiescent = scheduler.quiescent_until(5)
        assert quiescent == 100
        assert not scheduler.due(quiescent - 1)
        assert scheduler.due(quiescent)

    def test_quiescent_is_never_past_a_due_cycle(self):
        # Whatever float the interval arithmetic lands on, the skip
        # target must be the *first* cycle where due() is true.
        scheduler = self.make()
        assert scheduler.interval_cycles == pytest.approx(100.0)
        scheduler.mark_issued(0)
        quiescent = scheduler.quiescent_until(5)
        assert scheduler.due(quiescent)
        assert not scheduler.due(quiescent - 1)

    def test_fractional_interval_rounds_up_never_late(self):
        scheduler = self.make(n_rows=3)  # interval = 800/3 cycles
        assert scheduler.interval_cycles == pytest.approx(800 / 3)
        scheduler.mark_issued(0)
        quiescent = scheduler.quiescent_until(1)
        assert quiescent == math.ceil(scheduler.interval_cycles)
        # The skip target must not be a cycle where refresh was already
        # due (late) nor one where it is not yet due (early wake is
        # allowed only from the ceiling, by at most one fraction).
        assert not scheduler.due(quiescent - 1)
        assert scheduler.due(quiescent)

    def test_due_now_means_no_skip(self):
        scheduler = self.make()
        assert scheduler.due(0)
        assert scheduler.quiescent_until(0) == 0
        scheduler.mark_issued(0)
        # Past the new deadline, quiescent_until never points backwards.
        assert scheduler.quiescent_until(250) == 250

    def test_controller_quiescence_is_capped_by_refresh(self):
        params = idle_params(retention_cycles=1600)
        simulator = build_simulator(params)
        controller = simulator.controller
        scheduler = controller._refresh
        scheduler.mark_issued(0)
        # Idle controller, next request ~250 cycles out: its only
        # earlier obligation is the refresh deadline, and the engine's
        # skip must stop exactly there.
        engine = EventEngine(simulator)
        deadline = scheduler.quiescent_until(1)
        assert engine._skip_target(1, 10_000, -1) == deadline
        controller.step(deadline)
        assert controller.refreshes_issued == 1
