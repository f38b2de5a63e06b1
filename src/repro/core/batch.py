"""NumPy-batched analytic evaluation: array lanes instead of point loops.

The scalar :class:`~repro.core.evaluator.Evaluator` costs ~15-20 us per
design point, almost all of it Python interpreter overhead — the actual
arithmetic is a few dozen flops.  A design-space exploration evaluates
hundreds of points against one requirement, so this module evaluates
them as *lanes of numpy arrays* instead: one vectorized pass over the
whole grid, with results kept as a struct-of-arrays
(:class:`BatchEvaluation`) that feeds the feasibility filter and the
vectorized Pareto engine directly.

Two entry points share the kernel:

* :func:`evaluate_macro_grid` takes raw parameter lanes (sizes, widths,
  banks, pages as arrays) and never touches a macro object — this is
  the sweep-scale fast path (sub-microsecond per point);
* :func:`evaluate_macro_batch` gathers the lanes from a list of
  :class:`~repro.dram.edram.EDRAMMacro` objects, for callers that
  already hold macros (the explorer).

Bit-identity contract (pinned by ``tests/test_core_batch.py`` and the
``evaluator_batch`` fuzz property): every lane reproduces the scalar
evaluator's result to **exact float equality**, not a tolerance.  Three
rules make that possible:

* the vector expressions replicate the scalar code's operation order
  exactly (IEEE-754 ``+ - * /``, ``min``/``max`` are deterministic, so
  same order means same bits);
* anything transcendental or control-flow-heavy — the macro area model,
  the redundancy-repair yield's ``exp`` series and the gross-die
  truncation inside the cost model — is computed once per unique
  (size, width) pair by the very functions the scalar path calls
  (``repro.dram.edram._macro_area_mm2`` and
  ``repro.core.evaluator._silicon_cost``) and scattered back, so those
  lanes are identical by construction;
* per-width core power comes from the same memoized
  ``_edram_core_power`` the scalar path uses.

Batches outside the analyzed envelope (mixed timing parameters, or
mixed redundancy spares or process, across macros) are refused by
:func:`batch_fallback_reason`; :meth:`Evaluator.evaluate_macros
<repro.core.evaluator.Evaluator.evaluate_macros>` then runs the scalar
reference loop, mirroring how the event simulator backend declines
configurations it cannot prove.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.area.process import BaseProcess, DRAM_BASED_025
from repro.core.metrics import SolutionMetrics
from repro.core.requirements import ApplicationRequirements
from repro.dram.timing import TimingParameters
from repro.units import MBIT


def batch_fallback_reason(macros) -> str | None:
    """Why ``macros`` cannot be evaluated as one batch (None = they can).

    The vector expressions take the timing parameters and the area-model
    knobs (redundancy spares, process) as shared scalars; a batch that
    mixes them would need per-lane arrays and is rare enough to serve
    from the scalar loop instead.
    """
    if not macros:
        return "empty batch"
    first = macros[0]
    timing = first.timing
    spares = first.redundancy_spares
    process = first.process
    for macro in macros:
        if macro.timing is not timing and macro.timing != timing:
            return "mixed timing parameters across macros"
        if macro.redundancy_spares != spares or (
            macro.process is not process and macro.process != process
        ):
            return "mixed redundancy spares or process across macros"
    return None


@lru_cache(maxsize=128)
def _economics_lanes(
    size_bytes: bytes,
    width_bytes: bytes,
    spares: int,
    process: BaseProcess,
    wafer,
    yield_model,
) -> tuple:
    """(area, silicon-cost) lanes for one (size, width) grid.

    Each unique (size, width) pair is costed once by the scalar path's
    own functions.  Keyed by the raw lane bytes so a repeated grid — the
    common sweep shape — pays one dict hit instead of a unique-scan
    every call.  The returned arrays come from ``np.frombuffer``-derived
    indexing and are treated as immutable.
    """
    from repro.core.evaluator import _silicon_cost
    from repro.dram.edram import _macro_area_mm2

    size = np.frombuffer(size_bytes, dtype=np.int64)
    width = np.frombuffer(width_bytes, dtype=np.int64)
    pair_key = (size << 20) + width
    unique_keys, inverse = np.unique(pair_key, return_inverse=True)
    areas = [
        _macro_area_mm2(key >> 20, key & ((1 << 20) - 1), spares, process)
        for key in unique_keys.tolist()
    ]
    costs = [_silicon_cost(wafer, yield_model, area) for area in areas]
    return np.array(areas)[inverse], np.array(costs)[inverse]


@lru_cache(maxsize=128)
def _core_power_lanes(width_bytes: bytes, read_fraction: float) -> tuple:
    """(busy, idle) core-power lanes for one width grid.

    Scalars when the grid has a single width (the usual case — the
    array broadcast is then free); parallel lanes otherwise.  Values
    come from the same memoized ``_edram_core_power`` the scalar
    evaluator uses, so they are bit-identical by construction.
    """
    from repro.core.evaluator import _edram_core_power

    width = np.frombuffer(width_bytes, dtype=np.int64)
    unique, inverse = np.unique(width, return_inverse=True)
    if len(unique) == 1:
        return _edram_core_power(int(unique[0]), read_fraction)
    busy, idle = np.array(
        [_edram_core_power(w, read_fraction) for w in unique.tolist()]
    ).T
    return busy[inverse], idle[inverse]


@dataclass(frozen=True)
class BatchEvaluation:
    """Struct-of-arrays outcome of one batched eDRAM macro evaluation.

    One row per evaluated macro, in input order.  The arrays
    are the columns :meth:`SolutionMetrics.objective_tuple` and
    :meth:`Evaluator.meets` consume; :meth:`metrics_list` materializes
    the equivalent :class:`SolutionMetrics` objects on demand (that
    costs a few us per point, so sweep-scale consumers should stay on
    the arrays).

    Attributes:
        label_of: ``label_of(index)`` builds row ``index``'s metric
            label (lazy: labels cost ~0.5 us each and only matter when
            rows are materialized).
        requirements: The requirement the batch was evaluated against.
        capacity_bits: Installed capacity per row (int64).
        peak: Peak bandwidth, bits/s.
        sustained: Sustained bandwidth, bits/s.
        latency_ns: Loaded mean latency.
        power_w: Core + interface power.
        area_mm2: Silicon area.
        unit_cost: Unit cost.
    """

    label_of: object
    requirements: ApplicationRequirements
    capacity_bits: np.ndarray
    peak: np.ndarray
    sustained: np.ndarray
    latency_ns: np.ndarray
    power_w: np.ndarray
    area_mm2: np.ndarray
    unit_cost: np.ndarray

    def __len__(self) -> int:
        return len(self.capacity_bits)

    def feasible_mask(self) -> np.ndarray:
        """Vectorized :meth:`Evaluator.meets` over all rows."""
        requirements = self.requirements
        mask = (self.capacity_bits >= requirements.capacity_bits) & (
            self.sustained >= requirements.sustained_bandwidth_bits_per_s
        )
        if requirements.max_latency_ns is not None:
            mask &= self.latency_ns <= requirements.max_latency_ns
        if requirements.power_budget_w is not None:
            mask &= self.power_w <= requirements.power_budget_w
        return mask

    def objective_matrix(self) -> np.ndarray:
        """Rows of :meth:`SolutionMetrics.objective_tuple`, stacked."""
        return np.column_stack(
            (
                self.power_w,
                self.area_mm2,
                self.unit_cost,
                -self.sustained,
                self.latency_ns,
            )
        )

    def metrics_list(self) -> list:
        """Materialize every row as a :class:`SolutionMetrics`, in input
        order.

        Reads each column once with ``.tolist()``, which yields plain
        Python ints and floats.
        """
        n = len(self)
        columns = zip(
            map(self.label_of, range(n)),
            self.capacity_bits.tolist(),
            self.peak.tolist(),
            self.sustained.tolist(),
            self.latency_ns.tolist(),
            self.power_w.tolist(),
            self.area_mm2.tolist(),
            self.unit_cost.tolist(),
        )
        return [
            SolutionMetrics(
                label=label,
                capacity_bits=capacity,
                peak_bandwidth_bits_per_s=peak,
                sustained_bandwidth_bits_per_s=sustained,
                mean_latency_ns=latency,
                power_w=power,
                area_mm2=area,
                n_chips=1,
                unit_cost=cost,
                embedded=True,
            )
            for label, capacity, peak, sustained, latency, power, area, cost
            in columns
        ]


# -- embedded ----------------------------------------------------------------


def evaluate_macro_grid(
    evaluator,
    requirements: ApplicationRequirements,
    size_bits,
    width,
    banks,
    page_bits,
    timing: TimingParameters | None = None,
    redundancy_spares: int = 4,
    process: BaseProcess = DRAM_BASED_025,
) -> BatchEvaluation:
    """Vectorized ``Evaluator.evaluate_macro`` over raw parameter lanes.

    Args:
        evaluator: Scalar :class:`Evaluator` supplying the economics
            (wafer, yield, test cost, utilization knee).
        requirements: Requirement every lane is evaluated against.
        size_bits, width, banks, page_bits: Equal-length integer
            sequences — one design point per index.  Every combination
            must be a constructible macro; this kernel computes, it
            does not validate (build each point as an
            :class:`~repro.dram.edram.EDRAMMacro`, or use the explorer,
            for rule checking).
        timing: Shared timing parameters (default: the eDRAM concept's).
        redundancy_spares, process: Shared area-model knobs, matching
            the :class:`EDRAMMacro` defaults.

    Returns:
        A :class:`BatchEvaluation` bit-identical, row by row, to the
        scalar ``evaluate_macro`` over the same points.
    """
    from repro.power.interface import ON_CHIP_BUS

    if timing is None:
        from repro.dram.edram import EDRAM_TIMING

        timing = EDRAM_TIMING
    locality = requirements.locality
    if not 0 <= locality <= 1:
        from repro.errors import ConfigurationError

        raise ConfigurationError("locality must be in [0, 1]")

    size_i = np.asarray(size_bits, dtype=np.int64)
    width_i = np.asarray(width, dtype=np.int64)
    banks_i = np.asarray(banks, dtype=np.int64)
    page_i = np.asarray(page_bits, dtype=np.int64)
    width_f = width_i.astype(np.float64)
    banks_f = banks_i.astype(np.float64)

    # Die area and silicon cost: pure functions of (size, width),
    # computed by the exact scalar models once per unique combination
    # and memoized for the whole grid.
    area, silicon = _economics_lanes(
        size_i.tobytes(),
        width_i.tobytes(),
        redundancy_spares,
        process,
        evaluator.wafer,
        evaluator.yield_model,
    )

    burst = timing.burst_length
    # row_hit_rate: locality * max(0, 1 - burst_bits / page_bits)
    hit = locality * np.maximum(
        0.0, 1.0 - (width_i * burst) / page_i
    )
    miss = 1.0 - hit
    # refresh_overhead = t_rfc / (64e-3 * clock_hz / n_rows)
    n_rows = (size_i // (banks_i * page_i)).astype(np.float64)
    refresh_overhead = timing.t_rfc / (
        (64e-3 * timing.clock_hz) / n_rows
    )
    # bandwidth_efficiency
    cycles_single = burst + miss * (timing.t_rp + timing.t_rcd)
    overlapped = np.maximum(cycles_single / banks_f, burst)
    efficiency = (burst / overlapped) * (
        1.0 - np.minimum(0.5, refresh_overhead)
    )
    peak = width_f * timing.clock_hz
    sustained = peak * efficiency
    utilization = np.minimum(
        1.0,
        requirements.sustained_bandwidth_bits_per_s
        / np.maximum(sustained, 1.0),
    )
    base_latency_ns = (
        hit * timing.row_hit_latency_ns
        + miss * timing.row_miss_latency_ns
        + burst * timing.clock_period_ns
    )
    # _loaded_latency_ns with the utilization knee clamp
    clamped = np.minimum(utilization, evaluator.max_utilization)
    latency = base_latency_ns * (
        1.0 + clamped / (2.0 * (1.0 - clamped))
    )
    # Core power: (busy, idle) per unique width from the shared memo.
    busy, idle = _core_power_lanes(
        width_i.tobytes(), requirements.read_fraction
    )
    core_w = utilization * busy + (1 - utilization) * idle
    # InterfacePowerModel.power_w, same association order:
    # (((activity * energy) * width) * freq) * u, then * (1 + overhead).
    spec = ON_CHIP_BUS
    line = spec.activity * spec.energy_per_line_toggle_j()
    io_w = (((line * width_f) * timing.clock_hz) * utilization) * (
        1.0 + spec.control_overhead
    )
    unit_cost = silicon + evaluator.test_cost_per_mbit * (
        size_i / MBIT
    )

    @lru_cache(maxsize=1)
    def int_lanes() -> tuple:
        # The parameter lanes as Python ints, read once on first use.
        return tuple(
            lane.tolist() for lane in (size_i, width_i, banks_i, page_i)
        )

    def label_of(index: int) -> str:
        sizes, widths, bank_counts, pages = int_lanes()
        return (
            f"eDRAM {sizes[index] / MBIT:.2f} Mbit x{widths[index]} "
            f"{bank_counts[index]}b/p{pages[index]}"
        )

    return BatchEvaluation(
        label_of=label_of,
        requirements=requirements,
        capacity_bits=size_i,
        peak=peak,
        sustained=sustained,
        latency_ns=latency,
        power_w=core_w + io_w,
        area_mm2=area,
        unit_cost=unit_cost,
    )


def evaluate_macro_batch(
    evaluator, macros, requirements: ApplicationRequirements
) -> BatchEvaluation:
    """Vectorized ``Evaluator.evaluate_macro`` over a list of macros.

    Gathers the parameter lanes from the macro objects and delegates to
    :func:`evaluate_macro_grid`.  Callers must first consult
    :func:`batch_fallback_reason`.  Raises the same
    :class:`~repro.errors.ConfigurationError` the scalar evaluator
    would when a configuration cannot be costed (e.g. a die too large
    for the wafer).

    The macros must share ``timing``, ``redundancy_spares`` and
    ``process``, which :func:`batch_fallback_reason` checks.
    """
    first = macros[0]
    lanes = [
        (macro.size_bits, macro.width, macro.banks, macro.page_bits)
        for macro in macros
    ]
    size_bits, width, banks, page_bits = zip(*lanes)
    return evaluate_macro_grid(
        evaluator,
        requirements,
        size_bits=size_bits,
        width=width,
        banks=banks,
        page_bits=page_bits,
        timing=first.timing,
        redundancy_spares=first.redundancy_spares,
        process=first.process,
    )

