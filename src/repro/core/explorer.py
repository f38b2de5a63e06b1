"""Design-space exploration: enumerate, evaluate, filter, rank.

Section 3's free parameters — module size, interface width, number of
banks, page length — define the space; the explorer enumerates every
constructible combination (per the Siemens concept rules), evaluates each
against the application requirements, and splits the result into feasible
solutions and the Pareto frontier.  The discrete commodity alternative is
evaluated alongside, so every exploration answers the embedded-vs-
discrete question too.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ConfigurationError, InfeasibleError
from repro.units import MBIT, ceil_div
from repro.core.evaluator import Evaluator
from repro.core.metrics import SolutionMetrics
from repro.core.pareto import pareto_frontier
from repro.core.requirements import ApplicationRequirements
from repro.dram.catalog import COMMODITY_PARTS, smallest_system
from repro.dram.edram import EDRAMMacro, SIEMENS_CONCEPT, SiemensConceptRules
from repro.dram.timing import PC100_TIMING


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of a design-space sweep.

    Attributes:
        requirements: The application explored for.
        evaluated: Every evaluated configuration's metrics.
        feasible: Metrics meeting all hard requirements.
        frontier: Pareto-optimal subset of the feasible set.
        discrete_baseline: The commodity alternative, for comparison.
    """

    requirements: ApplicationRequirements
    evaluated: list
    feasible: list
    frontier: list
    discrete_baseline: SolutionMetrics | None

    @property
    def n_explored(self) -> int:
        return len(self.evaluated)

    def best_by(self, key) -> SolutionMetrics:
        """Best feasible solution under a key function (minimized)."""
        if not self.feasible:
            raise InfeasibleError(
                f"no feasible configuration for {self.requirements.name}"
            )
        return min(self.feasible, key=key)

    @property
    def min_power(self) -> SolutionMetrics:
        return self.best_by(lambda m: m.power_w)

    @property
    def min_area(self) -> SolutionMetrics:
        return self.best_by(lambda m: m.area_mm2)

    @property
    def min_cost(self) -> SolutionMetrics:
        return self.best_by(lambda m: m.unit_cost)

    @property
    def max_bandwidth(self) -> SolutionMetrics:
        return self.best_by(lambda m: -m.sustained_bandwidth_bits_per_s)


@dataclass
class DesignSpaceExplorer:
    """Enumerates and evaluates the eDRAM configuration space.

    Attributes:
        rules: Constructibility rules (Siemens concept by default).
        evaluator: Analytic evaluator.
        widths: Interface widths to consider (None = all powers of two in
            the concept's range).
        bank_options: Bank counts to consider.
        size_headroom: Capacity slack factors to consider beyond the
            minimum constructible size (exploring slightly larger modules
            sometimes buys organization freedom).
        pareto_engine: Frontier implementation passed through to
            :func:`~repro.core.pareto.pareto_frontier` ("auto" picks the
            vectorized engine; "python" forces the reference loop, used
            by the perf benchmark as the baseline).
        batch: Evaluate through :meth:`Evaluator.evaluate_macros`: the
            numpy batch kernel, or the scalar loop when the macros mix
            timing, spares or process.  False forces the scalar
            reference loop (``repro explore --backend scalar``).
    """

    rules: SiemensConceptRules = SIEMENS_CONCEPT
    evaluator: Evaluator = field(default_factory=Evaluator)
    widths: tuple | None = None
    bank_options: tuple = (1, 2, 4, 8, 16)
    size_headroom: tuple = (1.0, 1.25)
    pareto_engine: str = "auto"
    batch: bool = True

    def candidate_widths(self) -> list:
        if self.widths is not None:
            return list(self.widths)
        widths = []
        w = self.rules.min_width
        while w <= self.rules.max_width:
            widths.append(w)
            w *= 2
        return widths

    def candidate_sizes(self, required_bits: int) -> list:
        """Constructible sizes covering the requirement (with headroom)."""
        if required_bits <= 0:
            raise ConfigurationError("required capacity must be positive")
        step = min(self.rules.block_sizes_bits)
        sizes = []
        for headroom in self.size_headroom:
            target = int(required_bits * headroom)
            size = max(
                self.rules.min_module_bits,
                ceil_div(target, step) * step,
            )
            if size <= self.rules.max_module_bits and size not in sizes:
                sizes.append(size)
        if not sizes:
            raise InfeasibleError(
                f"requirement of {required_bits / MBIT:.1f} Mbit exceeds the "
                f"concept's {self.rules.max_module_bits / MBIT:.0f} Mbit limit"
            )
        return sizes

    def enumerate(self, requirements: ApplicationRequirements) -> list:
        """All constructible macros covering the capacity requirement.

        Each candidate size's macros come from a process-wide memo
        (:func:`_constructible_macros`), so explorers built afresh for
        every job never re-validate, or re-raise the same
        :class:`ConfigurationError` for, a size already enumerated.
        """
        widths = tuple(self.candidate_widths())
        bank_options = tuple(self.bank_options)
        macros = []
        for size in self.candidate_sizes(requirements.capacity_bits):
            macros.extend(
                _constructible_macros(self.rules, size, widths, bank_options)
            )
        return macros

    def explore(
        self,
        requirements: ApplicationRequirements,
        ledger=None,
    ) -> ExplorationResult:
        """Run the full sweep for one application.

        With ``ledger`` (path or open
        :class:`~repro.obs.ledger.RunLedger`), the exploration streams
        ``run_start``/phase-span/``run_end`` events — enumerate,
        evaluate and frontier each get a timed span, so ``repro
        report`` can show where an exploration spends its time.
        """
        from repro.obs.ledger import coerce_ledger

        run_ledger, owns_ledger = coerce_ledger(ledger)
        try:
            return self._explore(requirements, run_ledger)
        finally:
            if owns_ledger and run_ledger is not None:
                run_ledger.close()

    def _explore(self, requirements, ledger) -> ExplorationResult:
        import time

        started = time.perf_counter()
        if ledger is not None:
            ledger.event(
                "run_start",
                workload="explore",
                application=requirements.name,
                capacity_bits=requirements.capacity_bits,
                bandwidth_bits_per_s=(
                    requirements.sustained_bandwidth_bits_per_s
                ),
            )
        with _maybe_span(ledger, "enumerate"):
            macros = self.enumerate(requirements)
        with _maybe_span(ledger, "evaluate", n_macros=len(macros)):
            if self.batch:
                evaluated = self.evaluator.evaluate_macros(
                    macros, requirements
                )
            else:
                evaluated = [
                    self.evaluator.evaluate_macro(macro, requirements)
                    for macro in macros
                ]
        with _maybe_span(ledger, "frontier"):
            feasible = [
                metrics
                for metrics in evaluated
                if self.evaluator.meets(metrics, requirements)
            ]
            frontier = pareto_frontier(
                feasible,
                lambda metrics: metrics.objective_tuple(),
                engine=self.pareto_engine,
            )
        try:
            discrete = smallest_system(
                requirements.capacity_bits,
                self._discrete_width(requirements),
                COMMODITY_PARTS,
            )
            baseline = self.evaluator.evaluate_discrete(
                discrete, requirements
            )
        except (ConfigurationError, InfeasibleError):
            baseline = None
        if ledger is not None:
            ledger.event(
                "run_end",
                workload="explore",
                status="ok",
                n_explored=len(evaluated),
                n_feasible=len(feasible),
                n_frontier=len(frontier),
                s=round(time.perf_counter() - started, 6),
            )
        return ExplorationResult(
            requirements=requirements,
            evaluated=evaluated,
            feasible=feasible,
            frontier=frontier,
            discrete_baseline=baseline,
        )

    @staticmethod
    def _discrete_width(requirements: ApplicationRequirements) -> int:
        """Bus width a commodity system needs for the bandwidth.

        Derates the PC100 interface to ~60% sustained efficiency, the
        same ballpark the analytic model produces for mixed traffic.
        """
        effective = PC100_TIMING.clock_hz * 0.6
        width = ceil_div(
            int(requirements.sustained_bandwidth_bits_per_s), int(effective)
        )
        rounded = 16
        while rounded < width:
            rounded *= 2
        return rounded


@lru_cache(maxsize=256)
def _constructible_macros(
    rules: SiemensConceptRules, size: int, widths: tuple, bank_options: tuple
) -> tuple:
    """Every constructible macro of one size, in enumeration order.

    Combinations are pre-checked against the cheap concept rules (width
    vs page, bank/page divisibility) before a macro is built; the
    macros are frozen, so every explorer shares the memoized tuple.
    """
    macros = []
    for width in widths:
        for banks in bank_options:
            for page in rules.allowed_page_bits:
                if width > page or size % (banks * page):
                    continue
                try:
                    macro = EDRAMMacro(
                        size_bits=size,
                        width=width,
                        banks=banks,
                        page_bits=page,
                    )
                except ConfigurationError:
                    continue
                macros.append(macro)
    return tuple(macros)


def _maybe_span(ledger, name: str, **fields):
    """A ledger phase span, or a no-op context when the ledger is off."""
    if ledger is None:
        return nullcontext()
    return ledger.span(name, **fields)
