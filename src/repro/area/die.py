"""Whole-die composition: memory + logic + pads.

Covers two Section 1 claims:

* the **feasibility frontier** — "chips with up to 128 Mbit of DRAM and
  500 kgates of logic, or 64 Mbit of DRAM and 1 Mgates of logic are
  feasible" in quarter-micron technology, i.e. logic area can be traded for
  memory area along a fixed die budget; and

* **pad-limited designs** — "pad-limited design may be transformed into
  non-pad-limited ones by choosing an embedded solution": moving a wide
  memory interface on-chip removes pads, which can shrink the die when the
  pad ring, not the core, sets die size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, InfeasibleError
from repro.area.process import BaseProcess
from repro.area.logic import LogicAreaModel
from repro.area.macro import MacroAreaModel


@dataclass(frozen=True)
class PadRing:
    """Pad-ring geometry model.

    Attributes:
        pad_pitch_um: Pad pitch along the die edge.
        ring_depth_mm: Radial depth consumed by the pad ring and IO cells.
    """

    pad_pitch_um: float = 90.0
    ring_depth_mm: float = 0.35

    def __post_init__(self) -> None:
        if self.pad_pitch_um <= 0:
            raise ConfigurationError(
                f"pad pitch must be positive, got {self.pad_pitch_um}"
            )
        if self.ring_depth_mm < 0:
            raise ConfigurationError(
                f"ring depth must be non-negative, got {self.ring_depth_mm}"
            )

    def min_edge_mm(self, pad_count: int) -> float:
        """Minimum square-die edge to place ``pad_count`` pads on 4 sides."""
        if pad_count < 0:
            raise ConfigurationError(
                f"pad count must be non-negative, got {pad_count}"
            )
        pads_per_side = math.ceil(pad_count / 4)
        return pads_per_side * self.pad_pitch_um * 1e-3

    def min_die_area_mm2(self, pad_count: int) -> float:
        """Die area implied by the pad ring alone (square die)."""
        return self.min_edge_mm(pad_count) ** 2


@dataclass(frozen=True)
class DieComposition:
    """Result of composing a die from memory, logic, and pads.

    Attributes:
        memory_mm2: Memory macro area.
        logic_mm2: Random-logic area.
        core_mm2: memory + logic.
        pad_limited_mm2: Die area forced by the pad ring.
        die_mm2: max(core-driven area, pad-limited area).
        pad_limited: True when the pad ring, not the core, sets die size.
    """

    memory_mm2: float
    logic_mm2: float
    pad_limited_mm2: float
    ring_overhead_mm2: float

    @property
    def core_mm2(self) -> float:
        return self.memory_mm2 + self.logic_mm2

    @property
    def core_driven_mm2(self) -> float:
        return self.core_mm2 + self.ring_overhead_mm2

    @property
    def die_mm2(self) -> float:
        return max(self.core_driven_mm2, self.pad_limited_mm2)

    @property
    def pad_limited(self) -> bool:
        return self.pad_limited_mm2 > self.core_driven_mm2


@dataclass(frozen=True)
class DieAreaModel:
    """Composes memory macros and logic onto one die.

    Attributes:
        process: Base process.
        macro_model: Memory macro area model (defaults to one built on
            ``process``).
        logic_model: Logic area model (defaults to one built on
            ``process``).
        pad_ring: Pad ring geometry.
    """

    process: BaseProcess
    macro_model: MacroAreaModel | None = None
    logic_model: LogicAreaModel | None = None
    pad_ring: PadRing = PadRing()

    def _macro(self) -> MacroAreaModel:
        return self.macro_model or MacroAreaModel(process=self.process)

    def _logic(self) -> LogicAreaModel:
        return self.logic_model or LogicAreaModel(process=self.process)

    def compose(
        self,
        memory_bits: int,
        logic_gates: float,
        pad_count: int,
        interface_width: int = 64,
    ) -> DieComposition:
        """Compose a die and report its area breakdown."""
        memory = (
            self._macro().total_area_mm2(memory_bits, interface_width)
            if memory_bits > 0
            else 0.0
        )
        logic = self._logic().area_mm2(logic_gates)
        core = memory + logic
        edge = math.sqrt(core) if core > 0 else 0.0
        ring = (
            4 * edge * self.pad_ring.ring_depth_mm
            + 4 * self.pad_ring.ring_depth_mm**2
        )
        return DieComposition(
            memory_mm2=memory,
            logic_mm2=logic,
            pad_limited_mm2=self.pad_ring.min_die_area_mm2(pad_count),
            ring_overhead_mm2=ring,
        )

    def max_memory_bits(
        self,
        die_budget_mm2: float,
        logic_gates: float,
        interface_width: int = 64,
    ) -> int:
        """Largest memory (in bits) fitting a die budget beside the logic.

        Inverts the macro area model by bisection on whole building blocks.
        This is the feasibility-frontier query behind the paper's
        "128 Mbit + 500 kgates or 64 Mbit + 1 Mgates" claim.

        Raises:
            InfeasibleError: If the logic alone exceeds the budget.
        """
        if die_budget_mm2 <= 0:
            raise ConfigurationError(
                f"die budget must be positive, got {die_budget_mm2}"
            )
        logic = self._logic().area_mm2(logic_gates)
        remaining = die_budget_mm2 - logic
        if remaining <= 0:
            raise InfeasibleError(
                f"{logic_gates:.0f} gates need {logic:.1f} mm^2, exceeding "
                f"the {die_budget_mm2:.1f} mm^2 budget"
            )
        macro = self._macro()
        lo, hi = 0, 1
        while (
            macro.total_area_mm2(hi * macro.block_bits, interface_width)
            <= remaining
        ):
            lo, hi = hi, hi * 2
            if hi * macro.block_bits > (1 << 40):  # 1 Tbit sanity cap
                break
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if (
                macro.total_area_mm2(mid * macro.block_bits, interface_width)
                <= remaining
            ):
                lo = mid
            else:
                hi = mid
        return lo * macro.block_bits

    def frontier(
        self,
        die_budget_mm2: float,
        gate_counts: list[float],
        interface_width: int = 64,
    ) -> list[tuple[float, int]]:
        """The logic-vs-memory feasibility frontier.

        Returns ``(gates, max_memory_bits)`` pairs; infeasible gate counts
        map to zero memory rather than raising, so sweeps stay total.
        """
        points: list[tuple[float, int]] = []
        for gates in gate_counts:
            try:
                bits = self.max_memory_bits(
                    die_budget_mm2, gates, interface_width
                )
            except InfeasibleError:
                bits = 0
            points.append((gates, bits))
        return points
