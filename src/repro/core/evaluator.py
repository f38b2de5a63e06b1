"""Evaluate candidate memory solutions against application requirements.

Two evaluation paths share one metrics format:

* **analytic** — closed-form sustainable-bandwidth/latency estimates from
  locality, page length, bank count and refresh overhead (fast enough to
  sweep thousands of configurations), plus the power/area/cost models;
* **simulation** — the cycle-level simulator of :mod:`repro.sim` driven
  by a traffic mix derived from the requirement's locality (slow,
  accurate; used to validate the analytic shortlist).

The analytic bandwidth model: a stream touching a page of P bits with
B-bit bursts sees one row miss per P/B accesses, so the per-access cycle
cost is ``burst + (1 - h) * prep`` with h the hit rate; bank parallelism
overlaps up to ``banks`` preparations with transfers; refresh steals its
duty cycle.  This is the textbook derivation of why "the sustainable
bandwidth can be much lower than the peak bandwidth" and of what
organization parameters recover it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.units import MBIT
from repro.core.metrics import SolutionMetrics
from repro.core.requirements import ApplicationRequirements
from repro.cost.wafer import WaferSpec, die_cost_before_test
from repro.cost.yield_model import YieldModel
from repro.dram.catalog import DiscreteSystem
from repro.dram.edram import EDRAMMacro
from repro.power.idd import EDRAM_IDD, PC100_IDD, CorePowerModel
from repro.power.interface import (
    InterfacePowerModel,
    OFF_CHIP_BUS,
    ON_CHIP_BUS,
)


@lru_cache(maxsize=4096)
def _edram_core_power(width: int, read_fraction: float) -> tuple:
    """(busy_w, idle_w) of the eDRAM core at a given interface width.

    The IDD scaling and power-model construction are pure functions of
    the width and read mix; a design-space sweep revisits the same few
    widths hundreds of times.
    """
    core = CorePowerModel(EDRAM_IDD.scaled_for_width(width))
    return core.busy_power_w(read_fraction), core.idle_power_w()


def _silicon_cost(
    wafer: WaferSpec, yield_model: YieldModel, area_mm2: float
) -> float:
    """Cost of embedded memory silicon (yielded); the scalar evaluator
    and the batch kernel both call this one copy."""
    memory_yield = yield_model.memory_yield(area_mm2)
    return die_cost_before_test(wafer, area_mm2, memory_yield)


@dataclass(frozen=True)
class Evaluator:
    """Analytic evaluator for embedded and discrete memory solutions.

    Frozen and stateless: every evaluation is a pure function of the
    evaluator's assumptions and its arguments, so evaluators with equal
    fields are interchangeable (and pickle to equal copies).

    Attributes:
        wafer: Wafer economics for embedded silicon cost.
        yield_model: Yield model for embedded silicon cost.
        test_cost_per_mbit: Per-Mbit memory test cost added to embedded
            solutions.
        max_utilization: Queueing knee — utilization above this is
            treated as infeasible for latency purposes.
    """

    wafer: WaferSpec = WaferSpec(cost_multiplier=1.15)
    yield_model: YieldModel = field(default_factory=YieldModel)
    test_cost_per_mbit: float = 0.02
    max_utilization: float = 0.95

    # -- shared analytic kernels --------------------------------------------

    @staticmethod
    def row_hit_rate(
        locality: float, page_bits: int, burst_bits: int
    ) -> float:
        """Expected row-buffer hit rate.

        A perfectly local stream misses once per page (hit rate
        ``1 - burst/page``); fully random traffic essentially always
        misses.  Locality interpolates between the two.
        """
        if not 0 <= locality <= 1:
            raise ConfigurationError("locality must be in [0, 1]")
        if burst_bits <= 0 or page_bits <= 0:
            raise ConfigurationError("burst and page must be positive")
        # An access spanning a whole page (or more) misses every time:
        # each access opens a fresh row.
        stream_hit = max(0.0, 1.0 - burst_bits / page_bits)
        return locality * stream_hit

    @staticmethod
    def bandwidth_efficiency(
        hit_rate: float,
        burst_cycles: int,
        prep_cycles: int,
        banks: int,
        refresh_overhead: float,
    ) -> float:
        """Sustained/peak ratio from hit rate and bank overlap."""
        if not 0 <= hit_rate <= 1:
            raise ConfigurationError("hit rate must be in [0, 1]")
        if burst_cycles < 1 or prep_cycles < 0 or banks < 1:
            raise ConfigurationError("invalid timing/banks")
        if not 0 <= refresh_overhead < 1:
            raise ConfigurationError("refresh overhead must be in [0, 1)")
        cycles_single = burst_cycles + (1.0 - hit_rate) * prep_cycles
        overlapped = max(cycles_single / banks, burst_cycles)
        return (burst_cycles / overlapped) * (1.0 - refresh_overhead)

    def _loaded_latency_ns(
        self, base_ns: float, utilization: float
    ) -> float:
        """Base latency inflated by queueing (M/D/1-flavoured)."""
        if utilization >= self.max_utilization:
            utilization = self.max_utilization
        if utilization < 0:
            raise ConfigurationError("utilization must be >= 0")
        return base_ns * (1.0 + utilization / (2.0 * (1.0 - utilization)))

    # -- embedded ---------------------------------------------------------

    def evaluate_macro(
        self,
        macro: EDRAMMacro,
        requirements: ApplicationRequirements,
    ) -> SolutionMetrics:
        """Analytic metrics of an eDRAM macro under the requirements."""
        timing = macro.timing
        burst_bits = macro.width * timing.burst_length
        hit = self.row_hit_rate(
            requirements.locality, macro.page_bits, burst_bits
        )
        refresh_overhead = timing.t_rfc / (
            64e-3 * timing.clock_hz / macro.organization.n_rows
        )
        efficiency = self.bandwidth_efficiency(
            hit_rate=hit,
            burst_cycles=timing.burst_length,
            prep_cycles=timing.t_rp + timing.t_rcd,
            banks=macro.banks,
            refresh_overhead=min(0.5, refresh_overhead),
        )
        peak = macro.peak_bandwidth_bits_per_s
        sustained = peak * efficiency
        utilization = min(
            1.0, requirements.sustained_bandwidth_bits_per_s / max(sustained, 1.0)
        )
        base_latency_ns = (
            hit * timing.row_hit_latency_ns
            + (1 - hit) * timing.row_miss_latency_ns
            + timing.burst_length * timing.clock_period_ns
        )
        latency = self._loaded_latency_ns(base_latency_ns, utilization)
        # Power at the delivered operating point.
        busy, idle = _edram_core_power(
            macro.width, requirements.read_fraction
        )
        core_w = utilization * busy + (1 - utilization) * idle
        io_w = InterfacePowerModel(
            spec=ON_CHIP_BUS,
            width_bits=macro.width,
            frequency_hz=timing.clock_hz,
        ).power_w(utilization)
        area = macro.area_mm2()
        cost = _silicon_cost(self.wafer, self.yield_model, area) + (
            self.test_cost_per_mbit * (macro.size_bits / MBIT)
        )
        return SolutionMetrics(
            label=(
                f"eDRAM {macro.size_bits / MBIT:.2f} Mbit x{macro.width} "
                f"{macro.banks}b/p{macro.page_bits}"
            ),
            capacity_bits=macro.size_bits,
            peak_bandwidth_bits_per_s=peak,
            sustained_bandwidth_bits_per_s=sustained,
            mean_latency_ns=latency,
            power_w=core_w + io_w,
            area_mm2=area,
            n_chips=1,
            unit_cost=cost,
            embedded=True,
        )

    def evaluate_macros(
        self,
        macros,
        requirements: ApplicationRequirements,
    ) -> list:
        """:meth:`evaluate_macro` over many macros, in input order.

        Served by the numpy array-lane kernel of :mod:`repro.core.batch`
        when :func:`~repro.core.batch.batch_fallback_reason` accepts the
        batch (shared timing and area-model knobs), by the scalar loop
        otherwise.  Both paths return bit-identical metrics.
        """
        from repro.core.batch import (
            batch_fallback_reason,
            evaluate_macro_batch,
        )

        macros = list(macros)
        if batch_fallback_reason(macros) is None:
            return evaluate_macro_batch(
                self, macros, requirements
            ).metrics_list()
        return [self.evaluate_macro(macro, requirements) for macro in macros]

    # -- discrete ---------------------------------------------------------

    def evaluate_discrete(
        self,
        system: DiscreteSystem,
        requirements: ApplicationRequirements,
    ) -> SolutionMetrics:
        """Analytic metrics of a commodity multi-chip system."""
        part = system.part
        timing = part.timing
        burst_bits = system.total_width_bits * timing.burst_length
        page_bits = part.organization.page_bits * system.n_chips
        hit = self.row_hit_rate(requirements.locality, page_bits, burst_bits)
        refresh_overhead = timing.t_rfc / (
            64e-3 * timing.clock_hz / part.organization.n_rows
        )
        efficiency = self.bandwidth_efficiency(
            hit_rate=hit,
            burst_cycles=timing.burst_length,
            prep_cycles=timing.t_rp + timing.t_rcd,
            banks=part.organization.n_banks,
            refresh_overhead=min(0.5, refresh_overhead),
        )
        peak = system.peak_bandwidth_bits_per_s
        sustained = peak * efficiency
        utilization = min(
            1.0,
            requirements.sustained_bandwidth_bits_per_s / max(sustained, 1.0),
        )
        base_latency_ns = (
            hit * timing.row_hit_latency_ns
            + (1 - hit) * timing.row_miss_latency_ns
            + timing.burst_length * timing.clock_period_ns
        )
        latency = self._loaded_latency_ns(base_latency_ns, utilization)
        core = CorePowerModel(PC100_IDD)
        busy = core.busy_power_w(requirements.read_fraction)
        idle = core.idle_power_w()
        core_w = system.n_chips * (
            utilization * busy + (1 - utilization) * idle
        )
        io_w = InterfacePowerModel(
            spec=OFF_CHIP_BUS,
            width_bits=system.total_width_bits,
            frequency_hz=timing.clock_hz,
        ).power_w(utilization)
        return SolutionMetrics(
            label=f"discrete {system.n_chips} x {part.name}",
            capacity_bits=system.total_bits,
            peak_bandwidth_bits_per_s=peak,
            sustained_bandwidth_bits_per_s=sustained,
            mean_latency_ns=latency,
            power_w=core_w + io_w,
            area_mm2=0.0,
            n_chips=system.n_chips,
            unit_cost=system.total_price,
            embedded=False,
        )

    # -- requirement checks -------------------------------------------------

    def meets(
        self,
        metrics: SolutionMetrics,
        requirements: ApplicationRequirements,
    ) -> bool:
        """Whether a solution satisfies all hard requirements."""
        if metrics.capacity_bits < requirements.capacity_bits:
            return False
        if (
            metrics.sustained_bandwidth_bits_per_s
            < requirements.sustained_bandwidth_bits_per_s
        ):
            return False
        if (
            requirements.max_latency_ns is not None
            and metrics.mean_latency_ns > requirements.max_latency_ns
        ):
            return False
        if (
            requirements.power_budget_w is not None
            and metrics.power_w > requirements.power_budget_w
        ):
            return False
        return True
