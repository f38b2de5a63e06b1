"""Tests for repro.core.evaluator, requirements and metrics."""

import pickle

import pytest

from repro.core.evaluator import Evaluator
from repro.core.metrics import SolutionMetrics
from repro.core.requirements import ApplicationRequirements
from repro.dram.catalog import smallest_system
from repro.dram.edram import EDRAMMacro
from repro.errors import ConfigurationError
from repro.units import MBIT


def requirements(locality=0.7, bandwidth=1e9, capacity=8 * MBIT):
    return ApplicationRequirements(
        name="test",
        capacity_bits=capacity,
        sustained_bandwidth_bits_per_s=bandwidth,
        locality=locality,
    )


class TestRequirements:
    def test_properties(self):
        req = requirements(bandwidth=8e9, capacity=16 * MBIT)
        assert req.capacity_mbit == pytest.approx(16.0)
        assert req.bandwidth_gbyte_per_s == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            requirements(capacity=0)
        with pytest.raises(ConfigurationError):
            requirements(locality=1.5)


class TestAnalyticKernels:
    def test_hit_rate_stream_vs_random(self):
        hit_stream = Evaluator.row_hit_rate(1.0, 2048, 256)
        hit_random = Evaluator.row_hit_rate(0.0, 2048, 256)
        assert hit_stream == pytest.approx(1 - 256 / 2048)
        assert hit_random == 0.0

    def test_hit_rate_longer_pages_help(self):
        assert Evaluator.row_hit_rate(0.8, 8192, 256) > Evaluator.row_hit_rate(
            0.8, 1024, 256
        )

    def test_burst_spanning_page_always_misses(self):
        assert Evaluator.row_hit_rate(1.0, 1024, 2048) == 0.0

    def test_efficiency_banks_recover_bandwidth(self):
        kwargs = dict(
            hit_rate=0.0, burst_cycles=4, prep_cycles=6, refresh_overhead=0.0
        )
        one = Evaluator.bandwidth_efficiency(banks=1, **kwargs)
        four = Evaluator.bandwidth_efficiency(banks=4, **kwargs)
        assert one == pytest.approx(0.4)
        assert four == pytest.approx(1.0)

    def test_efficiency_hits_recover_bandwidth(self):
        cold = Evaluator.bandwidth_efficiency(0.0, 4, 6, 1, 0.0)
        warm = Evaluator.bandwidth_efficiency(0.9, 4, 6, 1, 0.0)
        assert warm > cold

    def test_refresh_taxes_bandwidth(self):
        clean = Evaluator.bandwidth_efficiency(0.5, 4, 6, 4, 0.0)
        taxed = Evaluator.bandwidth_efficiency(0.5, 4, 6, 4, 0.05)
        assert taxed == pytest.approx(0.95 * clean)

    def test_efficiency_never_above_one(self):
        assert Evaluator.bandwidth_efficiency(1.0, 4, 0, 16, 0.0) <= 1.0


class TestMacroEvaluation:
    def test_metrics_complete(self):
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=128)
        metrics = Evaluator().evaluate_macro(macro, requirements())
        assert metrics.embedded
        assert metrics.capacity_bits == 8 * MBIT
        assert 0 < metrics.sustained_bandwidth_bits_per_s <= (
            metrics.peak_bandwidth_bits_per_s
        )
        assert metrics.power_w > 0
        assert metrics.area_mm2 > 0
        assert metrics.unit_cost > 0

    def test_wider_interface_more_bandwidth(self):
        req = requirements()
        narrow = Evaluator().evaluate_macro(
            EDRAMMacro.build(size_bits=8 * MBIT, width=64), req
        )
        wide = Evaluator().evaluate_macro(
            EDRAMMacro.build(size_bits=8 * MBIT, width=512), req
        )
        assert (
            wide.sustained_bandwidth_bits_per_s
            > narrow.sustained_bandwidth_bits_per_s
        )

    def test_random_traffic_lowers_sustained(self):
        # Single bank so there is no parallelism to hide the misses.
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=128, banks=1)
        local = Evaluator().evaluate_macro(macro, requirements(locality=0.9))
        random_ = Evaluator().evaluate_macro(macro, requirements(locality=0.1))
        assert (
            random_.sustained_bandwidth_bits_per_s
            < local.sustained_bandwidth_bits_per_s
        )

    def test_load_inflates_latency(self):
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=128)
        light = Evaluator().evaluate_macro(
            macro, requirements(bandwidth=1e8)
        )
        heavy = Evaluator().evaluate_macro(
            macro, requirements(bandwidth=5e9)
        )
        assert heavy.mean_latency_ns > light.mean_latency_ns

    def test_pickle_round_trip_compares_equal(self):
        # The evaluator holds its four assumptions and nothing else, so
        # a copy in another process is the same evaluator.
        evaluator = Evaluator()
        macro = EDRAMMacro.build(size_bits=4 * MBIT, width=64)
        metrics = evaluator.evaluate_macro(macro, requirements())
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone == evaluator
        assert set(vars(clone)) == {
            "wafer",
            "yield_model",
            "test_cost_per_mbit",
            "max_utilization",
        }
        assert clone.evaluate_macro(macro, requirements()) == metrics


class TestDiscreteEvaluation:
    def test_discrete_metrics(self):
        system = smallest_system(8 * MBIT, 256)
        metrics = Evaluator().evaluate_discrete(system, requirements())
        assert not metrics.embedded
        assert metrics.n_chips == 16
        assert metrics.area_mm2 == 0.0
        assert metrics.capacity_bits == 64 * MBIT

    def test_embedded_beats_discrete_on_power(self):
        # The E1 structure holds through the evaluator too.
        req = requirements(bandwidth=4e9)
        system = smallest_system(8 * MBIT, 256)
        discrete = Evaluator().evaluate_discrete(system, req)
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=256)
        embedded = Evaluator().evaluate_macro(macro, req)
        assert discrete.power_w > 4 * embedded.power_w


class TestRequirementChecks:
    def test_meets_all(self):
        req = requirements(bandwidth=5e8)
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=128)
        metrics = Evaluator().evaluate_macro(macro, req)
        assert Evaluator().meets(metrics, req)

    def test_capacity_shortfall_fails(self):
        req = requirements(capacity=32 * MBIT, bandwidth=5e8)
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=128)
        metrics = Evaluator().evaluate_macro(macro, req)
        assert not Evaluator().meets(metrics, req)

    def test_power_budget_enforced(self):
        req = ApplicationRequirements(
            name="tight",
            capacity_bits=8 * MBIT,
            sustained_bandwidth_bits_per_s=5e8,
            power_budget_w=1e-6,
        )
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=128)
        metrics = Evaluator().evaluate_macro(macro, req)
        assert not Evaluator().meets(metrics, req)


class TestSolutionMetrics:
    def _metrics(self, **overrides):
        base = dict(
            label="x",
            capacity_bits=8 * MBIT,
            peak_bandwidth_bits_per_s=1e9,
            sustained_bandwidth_bits_per_s=5e8,
            mean_latency_ns=50.0,
            power_w=0.5,
            area_mm2=10.0,
            n_chips=1,
            unit_cost=3.0,
            embedded=True,
        )
        base.update(overrides)
        return SolutionMetrics(**base)

    def test_derived_figures(self):
        metrics = self._metrics()
        assert metrics.bandwidth_efficiency == pytest.approx(0.5)
        assert metrics.capacity_mbit == pytest.approx(8.0)
        assert metrics.fill_frequency_hz == pytest.approx(5e8 / (8 * MBIT))
        assert metrics.overhead_bits(6 * MBIT) == 2 * MBIT

    def test_objective_tuple_signs(self):
        metrics = self._metrics()
        objectives = metrics.objective_tuple()
        assert objectives[0] == metrics.power_w
        assert objectives[3] == -metrics.sustained_bandwidth_bits_per_s

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            self._metrics(capacity_bits=0)
        with pytest.raises(ConfigurationError):
            self._metrics(n_chips=0)
