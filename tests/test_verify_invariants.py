"""Live invariant checking: clean runs stay clean, injected bugs don't.

The value of a verification layer is measured from both sides: zero
false positives on correct code (every mode, every load level) and a
guaranteed catch when a protocol rule is deliberately broken.  The
injected bug here is the classic mutation — the bank model accepts
column commands one cycle before tRCD has elapsed — which the device
model happily issues and only the independent oracle can flag.
"""

import pytest

from repro.dram.bank import Bank
from repro.dram.commands import CommandType
from repro.errors import ConfigurationError, VerificationError
from repro.dram.organizations import Organization
from repro.dram.timing import EDRAM_TIMING, PC100_TIMING, TimingParameters
from repro.verify.fuzz import build_simulator
from repro.verify.invariants import (
    LiveInvariantChecker,
    refresh_deadline_slack,
)


def sim_params(rate=0.8, cycles=400, refresh=True):
    """A busy single-client workload with t_rcd large enough that a
    one-cycle-early column command is observable (the controller issues
    at most one command per cycle, so t_rcd must exceed 1)."""
    return {
        "timing": {
            "clock_period_ns": 10.0,
            "t_rcd": 3,
            "t_cas": 2,
            "t_rp": 2,
            "t_ras": 5,
            "t_rc": 8,
            "t_rrd": 1,
            "t_wr": 2,
            "t_rfc": 6,
            "burst_length": 4,
            "t_turnaround": 1,
        },
        "organization": {
            "n_banks": 4,
            "n_rows": 16,
            "page_bits": 1024,
            "word_bits": 16,
        },
        "scheme": "row:bank:col",
        "controller": {
            "window_size": 4,
            "fifo_capacity": 4,
            "refresh_enabled": refresh,
            # interval = retention / (n_rows * clock) = 200 cycles.
            "refresh_retention_s": 200 * 16 * 10e-9,
        },
        "sim": {"cycles": cycles, "warmup_cycles": 0},
        "clients": [
            {
                "name": "c0",
                "pattern": {
                    "kind": "sequential",
                    "base": 0,
                    "length": 4096,
                },
                "rate": rate,
                "read_fraction": 0.7,
                "seed": 3,
            }
        ],
    }


@pytest.fixture
def trcd_bug(monkeypatch):
    """Mutate the bank model: column commands accepted at tRCD - 1."""
    original = Bank.can_issue

    def relaxed(self, command):
        if command.kind in (CommandType.READ, CommandType.WRITE):
            self._settle(command.cycle)
            return (
                self._open_row is not None
                and command.cycle >= self._ready_column - 1
            )
        return original(self, command)

    monkeypatch.setattr(Bank, "can_issue", relaxed)


class TestCleanRuns:
    @pytest.mark.parametrize("fast", [False, True])
    @pytest.mark.parametrize("rate", [0.01, 0.8])
    def test_collect_mode_reports_clean(self, fast, rate):
        # Either requested backend runs checked simulations on the
        # naive loop; both must come out clean.
        simulator = build_simulator(
            sim_params(rate=rate),
            backend="event" if fast else "cycle",
            check_invariants="collect",
        )
        simulator.run()
        report = simulator.invariant_report
        assert report.clean, report.summary()
        assert report.commands_checked > 0
        assert report.cycles_checked > 0
        assert simulator.backend_used == "cycle"

    def test_raise_mode_is_silent_on_clean_runs(self):
        simulator = build_simulator(
            sim_params(), check_invariants="raise"
        )
        simulator.run()  # must not raise
        assert simulator.invariant_report.clean

    def test_off_mode_attaches_no_checker(self):
        simulator = build_simulator(
            sim_params(), check_invariants="off"
        )
        simulator.run()
        assert simulator.invariant_report is None
        assert simulator.invariant_checker is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            build_simulator(
                sim_params(), check_invariants="loud"
            )

    def test_checking_does_not_perturb_results(self):
        from repro.verify.differential import result_fingerprint

        plain = build_simulator(sim_params()).run()
        checked = build_simulator(
            sim_params(), check_invariants="collect"
        ).run()
        assert result_fingerprint(plain) == result_fingerprint(checked)


class TestInjectedTrcdBug:
    def test_collect_mode_catches_the_mutation(self, trcd_bug):
        simulator = build_simulator(
            sim_params(), check_invariants="collect"
        )
        simulator.run()
        report = simulator.invariant_report
        assert not report.clean
        checks = {violation.check for violation in report.violations}
        assert "col.t_rcd" in checks
        first = report.violations[0]
        assert "t_rcd" in str(first) or "ready" in str(first)

    def test_raise_mode_raises_verification_error(self, trcd_bug):
        simulator = build_simulator(
            sim_params(), check_invariants="raise"
        )
        with pytest.raises(VerificationError):
            simulator.run()

    def test_unchecked_run_sails_through(self, trcd_bug):
        # The point of the oracle: without it the mutated device model
        # accepts its own illegal schedule without complaint.
        simulator = build_simulator(sim_params())
        simulator.run()
        assert simulator.invariant_report is None


class TestRefreshDeadlineSlack:
    def test_slack_is_positive_and_grows_with_banks(self):
        narrow = Organization(
            n_banks=1, n_rows=64, page_bits=1024, word_bits=16
        )
        wide = Organization(
            n_banks=8, n_rows=64, page_bits=1024, word_bits=16
        )
        for timing in (PC100_TIMING, EDRAM_TIMING):
            small = refresh_deadline_slack(timing, narrow)
            large = refresh_deadline_slack(timing, wide)
            assert 0 < small < large

    def test_checker_builds_from_parameters(self):
        timing = TimingParameters(**sim_params()["timing"])
        organization = Organization(**sim_params()["organization"])
        checker = LiveInvariantChecker(
            organization=organization, timing=timing
        )
        report = checker.report()
        assert report.clean
        assert report.commands_checked == 0


class TestRetireFromFuture:
    """A request retires only once its data burst has ended."""

    @staticmethod
    def _violations(completed_cycle, cycle=100):
        from types import SimpleNamespace

        from repro.controller.request import Request

        timing = TimingParameters(**sim_params()["timing"])
        organization = Organization(**sim_params()["organization"])
        checker = LiveInvariantChecker(
            organization=organization, timing=timing
        )
        request = Request(
            request_id=7, client="c0", address=0, is_read=True,
            created_cycle=90,
        )
        request.accepted_cycle = 91
        request.issued_cycle = 95
        request.completed_cycle = completed_cycle
        checker._check_completed(
            cycle, SimpleNamespace(completed=[request])
        )
        return [violation.check for violation in checker.violations]

    def test_completion_this_cycle_is_clean(self):
        assert self._violations(completed_cycle=100) == []

    def test_completion_next_cycle_is_flagged(self):
        assert self._violations(completed_cycle=101) == [
            "state.retire_from_future"
        ]
