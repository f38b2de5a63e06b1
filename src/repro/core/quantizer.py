"""Quantizing the design space into understandable solutions.

"It is therefore incumbent upon edram suppliers to make the trade-offs
transparent and to quantize the design space into a set of
understandable if slightly sub-optimal solutions." (Section 3.)

The quantizer does two things:

* snaps arbitrary requirements onto the constructible grid (building-
  block sizes, power-of-two widths) and reports the quantization loss,
* reduces an exploration's Pareto frontier to a handful of *named*
  solutions (minimum power / minimum area / minimum cost / maximum
  bandwidth / balanced) a datasheet could print.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, InfeasibleError
from repro.units import MBIT, ceil_div
from repro.core.explorer import ExplorationResult
from repro.core.metrics import SolutionMetrics
from repro.dram.edram import SIEMENS_CONCEPT, SiemensConceptRules


@dataclass(frozen=True)
class NamedSolution:
    """One catalog entry of the quantized solution set.

    Attributes:
        name: Human-oriented label ("min-power", "balanced", ...).
        metrics: The solution's metrics.
        suboptimality: Relative distance to the per-objective optimum of
            the frontier it was drawn from (0 = optimal in its own
            objective).
    """

    name: str
    metrics: SolutionMetrics
    suboptimality: float

    def __post_init__(self) -> None:
        if self.suboptimality < 0:
            raise ConfigurationError("suboptimality must be >= 0")


@dataclass(frozen=True)
class Quantizer:
    """Snaps requirements to the constructible grid and names solutions.

    Attributes:
        rules: The concept's constructibility rules.
    """

    rules: SiemensConceptRules = SIEMENS_CONCEPT

    def snap_size(self, required_bits: int) -> int:
        """Smallest constructible module size covering the requirement."""
        if required_bits <= 0:
            raise ConfigurationError("required size must be positive")
        step = min(self.rules.block_sizes_bits)
        size = max(
            self.rules.min_module_bits, ceil_div(required_bits, step) * step
        )
        if size > self.rules.max_module_bits:
            raise InfeasibleError(
                f"{required_bits / MBIT:.2f} Mbit exceeds the concept's "
                f"{self.rules.max_module_bits / MBIT:.0f} Mbit maximum"
            )
        return size

    def quantization_overhead(self, required_bits: int) -> float:
        """Wasted capacity fraction after snapping — compare against the
        commodity granularity overhead of Section 1's example."""
        size = self.snap_size(required_bits)
        return (size - required_bits) / required_bits

    def snap_width(self, required_width: int) -> int:
        """Smallest offered interface width >= the request."""
        if required_width <= 0:
            raise ConfigurationError("required width must be positive")
        width = self.rules.min_width
        while width < required_width:
            width *= 2
        if width > self.rules.max_width:
            raise InfeasibleError(
                f"width {required_width} exceeds the concept's "
                f"{self.rules.max_width}-bit maximum"
            )
        return width

    def block_decomposition(self, size_bits: int) -> dict:
        """Greedy decomposition of a module into building blocks.

        Uses the largest blocks first (fewer blocks = less periphery),
        finishing the remainder with small blocks.
        """
        if size_bits <= 0:
            raise ConfigurationError("size must be positive")
        remaining = size_bits
        counts: dict = {}
        for block in sorted(self.rules.block_sizes_bits, reverse=True):
            counts[block] = remaining // block
            remaining -= counts[block] * block
        if remaining > 0:
            smallest = min(self.rules.block_sizes_bits)
            counts[smallest] += 1
        return counts

    # -- named solutions ---------------------------------------------------

    def named_solutions(
        self, result: ExplorationResult
    ) -> list:
        """Reduce a frontier to the understandable solution set."""
        if not result.feasible:
            raise InfeasibleError(
                f"no feasible solutions for {result.requirements.name}"
            )
        picks = [
            ("min-power", lambda m: m.power_w),
            ("min-area", lambda m: m.area_mm2),
            ("min-cost", lambda m: m.unit_cost),
            ("max-bandwidth", lambda m: -m.sustained_bandwidth_bits_per_s),
            ("min-latency", lambda m: m.mean_latency_ns),
        ]
        pool = result.frontier or result.feasible
        named: list = []
        seen_labels: set = set()
        for name, key in picks:
            best = min(pool, key=key)
            optimum = key(best)
            named.append(
                NamedSolution(name=name, metrics=best, suboptimality=0.0)
            )
            seen_labels.add((name, best.label))
            del optimum
        named.append(self._balanced(pool))
        return named

    @staticmethod
    def _balanced(pool: list) -> NamedSolution:
        """The knee solution: minimal max-normalized objective."""
        mins = []
        maxs = []
        vectors = [metrics.objective_tuple() for metrics in pool]
        n = len(vectors[0])
        for k in range(n):
            values = [v[k] for v in vectors]
            mins.append(min(values))
            maxs.append(max(values))

        def badness(vector) -> float:
            worst = 0.0
            for k in range(n):
                span = maxs[k] - mins[k]
                if span <= 0:
                    continue
                worst = max(worst, (vector[k] - mins[k]) / span)
            return worst

        best_index = min(
            range(len(pool)), key=lambda i: badness(vectors[i])
        )
        return NamedSolution(
            name="balanced",
            metrics=pool[best_index],
            suboptimality=badness(vectors[best_index]),
        )
