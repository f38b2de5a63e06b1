"""Logic <-> memory die-area trading.

"Furthermore the designer can trade logic area for memory area in a way
heretofore impossible." (Section 3.)  And Section 1's concrete instance:
in quarter-micron, 128 Mbit + 500 kgates or 64 Mbit + 1 Mgates fit the
same die.

:class:`LogicMemoryTrade` sweeps the frontier for a fixed die budget and
process, and answers point queries ("how many gates do I give up for 16
more Mbit?").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, InfeasibleError
from repro.units import MBIT
from repro.area.die import DieAreaModel
from repro.area.process import BaseProcess, DRAM_BASED_025

#: Die budget at which the paper's two quarter-micron feasibility points
#: (128 Mbit + 500 kgates; 64 Mbit + 1 Mgates) both just fit, under the
#: calibrated DRAM-based process and macro model.
QUARTER_MICRON_DIE_BUDGET_MM2 = 203.7


@dataclass(frozen=True)
class TradePoint:
    """One point on the logic/memory frontier.

    Attributes:
        logic_gates: Logic budget.
        memory_bits: Maximum memory fitting beside it.
    """

    logic_gates: float
    memory_bits: int

    @property
    def memory_mbit(self) -> float:
        return self.memory_bits / MBIT


@dataclass(frozen=True)
class LogicMemoryTrade:
    """Frontier of feasible (logic, memory) pairs on one die.

    Attributes:
        die_budget_mm2: Total die area available for memory + logic.
        process: Base process.
        interface_width: Memory interface width assumed for macro area.
    """

    die_budget_mm2: float
    process: BaseProcess = DRAM_BASED_025
    interface_width: int = 64

    def __post_init__(self) -> None:
        if self.die_budget_mm2 <= 0:
            raise ConfigurationError("die budget must be positive")
        if self.interface_width <= 0:
            raise ConfigurationError("interface width must be positive")

    def _model(self) -> DieAreaModel:
        return DieAreaModel(process=self.process)

    def max_memory_for_logic(self, logic_gates: float) -> int:
        """Largest memory fitting beside a logic budget."""
        return self._model().max_memory_bits(
            self.die_budget_mm2, logic_gates, self.interface_width
        )

    def max_logic_for_memory(self, memory_bits: int) -> float:
        """Largest logic budget fitting beside a memory size."""
        from repro.area.macro import MacroAreaModel
        from repro.area.logic import LogicAreaModel

        macro = MacroAreaModel(process=self.process)
        memory = (
            macro.total_area_mm2(memory_bits, self.interface_width)
            if memory_bits > 0
            else 0.0
        )
        remaining = self.die_budget_mm2 - memory
        if remaining <= 0:
            raise InfeasibleError(
                f"{memory_bits / MBIT:.1f} Mbit alone exceeds the die budget"
            )
        return LogicAreaModel(process=self.process).gates_fitting(remaining)

    def frontier(self, gate_counts) -> list:
        """Sweep the frontier over a list of gate budgets."""
        points = []
        for gates in gate_counts:
            try:
                bits = self.max_memory_for_logic(gates)
            except InfeasibleError:
                bits = 0
            points.append(TradePoint(logic_gates=gates, memory_bits=bits))
        return points

    def exchange_rate_gates_per_mbit(self) -> float:
        """Marginal trade: logic gates given up per additional Mbit.

        With linear area models this is density_logic / density_memory —
        about 7800 gates per Mbit on the calibrated DRAM-based process.
        """
        gates_per_mm2 = self.process.logic_density_kgates_per_mm2 * 1e3
        mm2_per_mbit = 1.0 / self.process.memory_density_mbit_per_mm2
        return gates_per_mm2 * mm2_per_mbit
