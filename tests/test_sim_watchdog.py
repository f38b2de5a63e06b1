"""Tests for the simulator watchdog: max_cycles / max_wall_s truncation."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.serve.workloads import build_baseline_simulator
from repro.sim.simulator import SimulationConfig
from repro.verify.differential import result_fingerprint


def _build(backend, cycles=4_000, warmup_cycles=300, **overrides):
    simulator = build_baseline_simulator(
        cycles=cycles, warmup_cycles=warmup_cycles, seed=0
    )
    simulator.config = dataclasses.replace(
        simulator.config, backend=backend, **overrides
    )
    return simulator


class TestValidation:
    def test_bad_max_cycles(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_cycles=0)

    def test_bad_max_wall(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_wall_s=-1.0)

    def test_valid_watchdog(self):
        SimulationConfig(max_cycles=100, max_wall_s=1.0)


class TestMaxCycles:
    def test_truncates_deterministically(self):
        result = _build("cycle", max_cycles=2_000).run()
        assert result.truncated
        assert result.truncation_reason == "max_cycles"
        assert result.truncated_at_cycle == 2_000
        # 300 warm-up cycles were simulated and reset; statistics cover
        # the remaining 1700.
        assert result.cycles == 1_700
        assert result.requests_completed > 0

    def test_fast_and_naive_truncate_identically(self):
        naive = _build("cycle", max_cycles=2_000).run()
        fast = _build("event", max_cycles=2_000).run()
        assert result_fingerprint(naive) == result_fingerprint(fast)
        assert naive.truncated_at_cycle == fast.truncated_at_cycle

    def test_generous_cap_never_truncates(self):
        result = _build("event", max_cycles=1_000_000).run()
        assert not result.truncated
        assert result.truncation_reason is None
        assert result.truncated_at_cycle is None
        assert result.cycles == 4_000

    def test_truncation_before_warmup(self):
        result = _build("cycle", max_cycles=100).run()
        assert result.truncated
        # No measurement reset happened: the short whole-run window is
        # what the statistics cover.
        assert result.cycles == 100

    def test_result_stays_usable(self):
        result = _build("cycle", max_cycles=1_500).run()
        assert "requests over" in result.summary()
        assert result.sustained_bandwidth_bits_per_s >= 0.0

    def test_observer_counts_one_truncation(self):
        simulator = _build("cycle", max_cycles=2_000)
        obs = Observability.create(trace=True).attach(simulator)
        simulator.run()
        assert obs.metrics.snapshot()["counters"]["sim.run_truncated"] == 1
        instants = [
            event
            for event in obs.trace.events
            if event["name"] == "run-truncated"
        ]
        assert len(instants) == 1
        assert instants[0]["args"] == {"reason": "max_cycles", "cycle": 2_000}

    def test_untruncated_run_counts_none(self):
        simulator = _build("event")
        obs = Observability.create().attach(simulator)
        simulator.run()
        assert "sim.run_truncated" not in obs.metrics.snapshot()["counters"]


class TestMaxWall:
    def test_expired_deadline_truncates(self):
        result = _build("cycle", max_wall_s=0.0).run()
        assert result.truncated
        assert result.truncation_reason == "max_wall_s"
        assert result.truncated_at_cycle < 4_300
        assert "requests over" in result.summary()

    def test_fast_path_also_guarded(self):
        result = _build("event", max_wall_s=0.0).run()
        assert result.truncated
        assert result.truncation_reason == "max_wall_s"

    def test_generous_deadline_never_truncates(self):
        result = _build("event", max_wall_s=60.0).run()
        assert not result.truncated


class TestCancellation:
    def test_cancelled_token_truncates_naive_path(self):
        from repro.serve.resilience import CancelToken

        token = CancelToken()
        token.cancel("test asked nicely")
        result = _build("cycle", cancel=token).run()
        assert result.truncated
        assert result.truncation_reason == "cancelled"
        assert result.truncated_at_cycle < 4_300

    def test_cancelled_token_truncates_fast_path(self):
        from repro.serve.resilience import CancelToken

        token = CancelToken()
        token.cancel("test asked nicely")
        result = _build("event", cancel=token).run()
        assert result.truncated
        assert result.truncation_reason == "cancelled"

    def test_duck_typed_token_is_accepted(self):
        # Any object with a boolean `cancelled` attribute works; the
        # simulator must not depend on the serve layer's token class.
        class _Flag:
            cancelled = True

        result = _build("cycle", cancel=_Flag()).run()
        assert result.truncation_reason == "cancelled"

    def test_uncancelled_token_changes_nothing(self):
        from repro.serve.resilience import CancelToken

        clean = _build("event").run()
        watched = _build("event", cancel=CancelToken()).run()
        assert not watched.truncated
        assert result_fingerprint(clean) == result_fingerprint(watched)

    def test_naive_watchdog_skips_the_final_cycle(self):
        # 512 total cycles: the naive loop's first every-512-cycles
        # watchdog check falls on the final cycle, where the run is
        # already complete and must be reported as such.
        from repro.serve.resilience import CancelToken

        token = CancelToken()
        token.cancel("too late to matter")
        result = _build(
            "cycle", cycles=448, warmup_cycles=64, cancel=token
        ).run()
        assert not result.truncated
        assert result.truncation_reason is None
        assert result.truncated_at_cycle is None
        assert result.cycles == 448


class TestFingerprintExclusion:
    def test_truncation_fields_not_fingerprinted(self):
        # The fingerprint is the bit-identity surface; wall-clock
        # truncation metadata must never enter it.
        full = _build("event").run()
        fingerprint = result_fingerprint(full)
        flat = repr(fingerprint)
        assert "truncat" not in flat
        assert "max_cycles" not in flat
