"""Tests for the baseline simulated system behind ``sim_fingerprint``."""

import dataclasses

import pytest

from repro.serve.workloads import build_baseline_simulator, sim_fingerprint
from repro.verify.differential import result_fingerprint


def _fingerprint(backend, seed, cycles=1_200):
    simulator = build_baseline_simulator(
        cycles=cycles, warmup_cycles=cycles // 8, seed=seed
    )
    simulator.config = dataclasses.replace(simulator.config, backend=backend)
    result = simulator.run()
    assert simulator.backend_used == backend
    return result_fingerprint(result)


class TestBaselineSimulator:
    def test_config_pinned_by_arguments(self):
        simulator = build_baseline_simulator(
            cycles=900, warmup_cycles=50, seed=2
        )
        assert simulator.config.cycles == 900
        assert simulator.config.warmup_cycles == 50
        assert [c.name for c in simulator.clients] == [
            "display", "video", "cpu",
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_event_and_cycle_backends_bit_identical(self, seed):
        assert _fingerprint("event", seed) == _fingerprint("cycle", seed)

    def test_seed_changes_the_run(self):
        assert _fingerprint("event", 0) != _fingerprint("event", 1)

    def test_sim_fingerprint_is_the_baseline_run(self):
        assert sim_fingerprint(seed=3, cycles=800) == result_fingerprint(
            build_baseline_simulator(
                cycles=800, warmup_cycles=100, seed=3
            ).run()
        )
