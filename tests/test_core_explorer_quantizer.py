"""Tests for repro.core.explorer, quantizer, tradeoffs."""

import pytest

from repro.core.explorer import DesignSpaceExplorer
from repro.core.quantizer import Quantizer
from repro.core.requirements import ApplicationRequirements
from repro.core.tradeoffs import (
    LogicMemoryTrade,
    QUARTER_MICRON_DIE_BUDGET_MM2,
)
from repro.errors import ConfigurationError, InfeasibleError
from repro.units import KBIT, MBIT


def requirements(**overrides):
    base = dict(
        name="app",
        capacity_bits=8 * MBIT,
        sustained_bandwidth_bits_per_s=1e9,
        locality=0.7,
        volume_per_year=5_000_000,
    )
    base.update(overrides)
    return ApplicationRequirements(**base)


class TestExplorer:
    def test_exploration_produces_feasible_set(self):
        result = DesignSpaceExplorer().explore(requirements())
        assert result.n_explored > 50
        assert result.feasible
        assert result.frontier
        assert set(result.frontier) <= set(result.feasible)

    def test_frontier_smaller_than_feasible(self):
        result = DesignSpaceExplorer().explore(requirements())
        assert len(result.frontier) < len(result.feasible)

    def test_named_optima_are_feasible(self):
        result = DesignSpaceExplorer().explore(requirements())
        for metrics in (
            result.min_power,
            result.min_area,
            result.min_cost,
            result.max_bandwidth,
        ):
            assert metrics in result.feasible

    def test_all_candidates_cover_capacity(self):
        explorer = DesignSpaceExplorer()
        for macro in explorer.enumerate(requirements()):
            assert macro.size_bits >= 8 * MBIT

    def test_infeasible_bandwidth_empty(self):
        # 100 GB/s is beyond the concept's 9 GB/s.
        result = DesignSpaceExplorer().explore(
            requirements(sustained_bandwidth_bits_per_s=8e11)
        )
        assert not result.feasible
        with pytest.raises(InfeasibleError):
            result.min_power

    def test_capacity_beyond_concept(self):
        with pytest.raises(InfeasibleError):
            DesignSpaceExplorer().explore(
                requirements(capacity_bits=512 * MBIT)
            )

    def test_discrete_baseline_present(self):
        result = DesignSpaceExplorer().explore(requirements())
        assert result.discrete_baseline is not None
        assert not result.discrete_baseline.embedded

    def test_embedded_frontier_beats_discrete_power(self):
        result = DesignSpaceExplorer().explore(requirements())
        assert result.min_power.power_w < result.discrete_baseline.power_w


class TestQuantizer:
    def test_snap_size_block_granularity(self):
        quantizer = Quantizer()
        snapped = quantizer.snap_size(int(4.6 * MBIT))
        assert snapped % (256 * KBIT) == 0
        assert snapped >= 4.6 * MBIT
        assert snapped - 4.6 * MBIT < 256 * KBIT

    def test_quantization_overhead_tiny_vs_commodity(self):
        # Section 4.1's point: eDRAM snaps to 256-Kbit granularity where
        # commodity granularity forced 16 -> 64 Mbit jumps.
        quantizer = Quantizer()
        overhead = quantizer.quantization_overhead(int(4.75 * MBIT))
        assert overhead < 0.06

    def test_snap_width(self):
        quantizer = Quantizer()
        assert quantizer.snap_width(100) == 128
        assert quantizer.snap_width(16) == 16
        with pytest.raises(InfeasibleError):
            quantizer.snap_width(600)

    def test_snap_size_beyond_max(self):
        with pytest.raises(InfeasibleError):
            Quantizer().snap_size(512 * MBIT)

    def test_block_decomposition(self):
        quantizer = Quantizer()
        counts = quantizer.block_decomposition(int(4.75 * MBIT))
        rebuilt = sum(size * n for size, n in counts.items())
        assert rebuilt == int(4.75 * MBIT)
        assert counts[MBIT] == 4
        assert counts[256 * KBIT] == 3

    def test_named_solutions(self):
        result = DesignSpaceExplorer().explore(requirements())
        named = Quantizer().named_solutions(result)
        names = {solution.name for solution in named}
        assert {
            "min-power",
            "min-area",
            "min-cost",
            "max-bandwidth",
            "min-latency",
            "balanced",
        } <= names
        # Every named pick comes from the explored pool.
        labels = {metrics.label for metrics in result.feasible}
        assert all(solution.metrics.label in labels for solution in named)

    def test_named_solutions_need_feasible(self):
        result = DesignSpaceExplorer().explore(
            requirements(sustained_bandwidth_bits_per_s=8e11)
        )
        with pytest.raises(InfeasibleError):
            Quantizer().named_solutions(result)


class TestLogicMemoryTrade:
    def test_paper_feasibility_pairs(self):
        trade = LogicMemoryTrade(
            die_budget_mm2=QUARTER_MICRON_DIE_BUDGET_MM2
        )
        assert trade.max_memory_for_logic(500e3) == 128 * MBIT
        assert trade.max_memory_for_logic(1e6) == 64 * MBIT

    def test_inverse_query(self):
        trade = LogicMemoryTrade(
            die_budget_mm2=QUARTER_MICRON_DIE_BUDGET_MM2
        )
        gates = trade.max_logic_for_memory(128 * MBIT)
        assert gates == pytest.approx(500e3, rel=0.02)

    def test_frontier_monotone(self):
        trade = LogicMemoryTrade(die_budget_mm2=200.0)
        points = trade.frontier([1e5, 3e5, 6e5, 1e6, 1.5e6])
        memories = [point.memory_bits for point in points]
        assert memories == sorted(memories, reverse=True)

    def test_exchange_rate(self):
        trade = LogicMemoryTrade(die_budget_mm2=200.0)
        assert trade.exchange_rate_gates_per_mbit() == pytest.approx(8680.0)

    def test_memory_exceeding_die(self):
        trade = LogicMemoryTrade(die_budget_mm2=50.0)
        with pytest.raises(InfeasibleError):
            trade.max_logic_for_memory(128 * MBIT)

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            LogicMemoryTrade(die_budget_mm2=0.0)
