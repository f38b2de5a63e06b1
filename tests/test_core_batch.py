"""Batched evaluator vs the scalar reference: exact float equality.

The contract under test (see ``repro/core/batch.py``) is *bit-identity,
not tolerance*: every array lane must reproduce the scalar evaluator's
result exactly, over the full E10 design-space grid — and the wired-in
consumers (``Evaluator.evaluate_macros``, the explorer, the Pareto
mask) must be indistinguishable from their scalar paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    batch_fallback_reason,
    evaluate_macro_batch,
    evaluate_macro_grid,
)
from repro.core.evaluator import Evaluator
from repro.core.explorer import DesignSpaceExplorer
from repro.core.pareto import pareto_frontier_mask
from repro.core.requirements import ApplicationRequirements
from repro.dram.edram import EDRAMMacro
from repro.errors import ConfigurationError
from repro.experiments.e10_design_space import mpeg2_requirements
from repro.units import MBIT

REQ = mpeg2_requirements()


def _grid_macros():
    return DesignSpaceExplorer().enumerate(REQ)


def test_macro_batch_exact_over_e10_grid():
    """Every lane equals the scalar result to exact float equality."""
    macros = _grid_macros()
    assert len(macros) >= 200  # the full E10 grid, not a subsample
    scalar_ev = Evaluator()
    scalar = [scalar_ev.evaluate_macro(m, REQ) for m in macros]
    batch = evaluate_macro_batch(Evaluator(), macros, REQ)
    assert len(batch) == len(macros)
    rows = batch.metrics_list()
    for reference, row in zip(scalar, rows):
        assert reference == row  # frozen dataclass: field-exact
    mask = batch.feasible_mask()
    matrix = batch.objective_matrix()
    for index, reference in enumerate(scalar):
        assert bool(mask[index]) == scalar_ev.meets(reference, REQ)
        assert tuple(matrix[index]) == reference.objective_tuple()


def test_macro_grid_matches_batch():
    """The array-lane entry point equals the macro-object one."""
    macros = _grid_macros()
    lanes = zip(*[(m.size_bits, m.width, m.banks, m.page_bits) for m in macros])
    size, width, banks, page = (
        np.array(lane, dtype=np.int64) for lane in lanes
    )
    grid = evaluate_macro_grid(Evaluator(), REQ, size, width, banks, page)
    batch = evaluate_macro_batch(Evaluator(), macros, REQ)
    assert grid.metrics_list() == batch.metrics_list()


def test_macro_batch_mixed_widths_and_requirement_limits():
    """Latency/power limits flow into the mask; widths mix correctly."""
    requirements = ApplicationRequirements(
        name="limits",
        capacity_bits=2 * MBIT,
        sustained_bandwidth_bits_per_s=1e9,
        max_latency_ns=120.0,
        power_budget_w=0.15,
    )
    macros = [
        EDRAMMacro(size_bits=2 * MBIT, width=w, banks=4, page_bits=2048)
        for w in (16, 64, 256)
    ]
    evaluator = Evaluator()
    scalar = [
        Evaluator().evaluate_macro(m, requirements) for m in macros
    ]
    batch = evaluate_macro_batch(Evaluator(), macros, requirements)
    assert batch.metrics_list() == scalar
    mask = batch.feasible_mask()
    for index, metrics in enumerate(scalar):
        assert bool(mask[index]) == evaluator.meets(metrics, requirements)


def test_batch_fallback_reasons():
    assert batch_fallback_reason([]) == "empty batch"
    macros = _grid_macros()[:2]
    assert batch_fallback_reason(macros) is None
    import dataclasses

    from repro.dram.edram import EDRAM_TIMING

    mixed = [
        macros[0],
        EDRAMMacro(
            size_bits=macros[1].size_bits,
            width=macros[1].width,
            banks=macros[1].banks,
            page_bits=macros[1].page_bits,
            timing=dataclasses.replace(EDRAM_TIMING, t_cas=3),
        ),
    ]
    assert batch_fallback_reason(mixed) is not None


def test_evaluate_macros_batched_and_fallback():
    macros = _grid_macros()
    reference = [Evaluator().evaluate_macro(m, REQ) for m in macros]
    evaluator = Evaluator()
    assert batch_fallback_reason(macros) is None  # the batch kernel
    assert evaluator.evaluate_macros(macros, REQ) == reference
    # A repeat on the same evaluator evaluates afresh, equally.
    assert evaluator.evaluate_macros(macros, REQ) == [
        evaluator.evaluate_macro(m, REQ) for m in macros
    ]
    # Heterogeneous area knobs: scalar fallback, same results.
    spares = EDRAMMacro(
        size_bits=macros[0].size_bits,
        width=macros[0].width,
        banks=macros[0].banks,
        page_bits=macros[0].page_bits,
        redundancy_spares=8,
    )
    mixed = [macros[0], spares]
    assert batch_fallback_reason(mixed) is not None
    assert Evaluator().evaluate_macros(mixed, REQ) == [
        Evaluator().evaluate_macro(m, REQ) for m in mixed
    ]
    assert Evaluator().evaluate_macros([], REQ) == []


def test_explorer_batch_parity():
    reference = DesignSpaceExplorer(batch=False).explore(REQ)
    batched = DesignSpaceExplorer().explore(REQ)
    assert batched.evaluated == reference.evaluated
    assert batched.feasible == reference.feasible
    assert batched.frontier == reference.frontier


def test_pareto_mask_matches_frontier():
    from repro.core.pareto import pareto_frontier

    result = DesignSpaceExplorer().explore(REQ)
    matrix = np.array([m.objective_tuple() for m in result.feasible])
    reference = pareto_frontier(
        result.feasible, lambda m: m.objective_tuple(), engine="python"
    )
    for engine in ("python", "numpy", "auto"):
        mask = pareto_frontier_mask(matrix, engine=engine)
        kept = [
            m for index, m in enumerate(result.feasible) if mask[index]
        ]
        assert kept == reference
    assert pareto_frontier_mask(np.zeros((0, 3))).tolist() == []
    with pytest.raises(ConfigurationError):
        pareto_frontier_mask(np.zeros(4))
    with pytest.raises(ConfigurationError):
        pareto_frontier_mask(np.zeros((2, 2)), engine="fortran")


def test_pareto_mask_deduplicates():
    matrix = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 3.0]])
    mask = pareto_frontier_mask(matrix)
    assert mask.tolist() == [True, False, True]



def test_fallback_reason_names_mixed_spares_or_process():
    from repro.area.process import LOGIC_BASED_025

    macros = _grid_macros()[:2]
    first, second = macros
    spares = EDRAMMacro(
        size_bits=second.size_bits,
        width=second.width,
        banks=second.banks,
        page_bits=second.page_bits,
        redundancy_spares=8,
    )
    process = EDRAMMacro(
        size_bits=second.size_bits,
        width=second.width,
        banks=second.banks,
        page_bits=second.page_bits,
        process=LOGIC_BASED_025,
    )
    reason = "mixed redundancy spares or process across macros"
    assert batch_fallback_reason([first, spares]) == reason
    assert batch_fallback_reason([first, process]) == reason


def test_economics_lanes_are_the_scalar_formulas():
    """Area and silicon cost come from the scalar path's own functions."""
    from repro.core.evaluator import _silicon_cost

    macros = _grid_macros()
    evaluator = Evaluator()
    batch = evaluate_macro_batch(evaluator, macros, REQ)
    for index, macro in enumerate(macros):
        area = macro.area_mm2()
        assert batch.area_mm2[index] == area
        silicon = _silicon_cost(evaluator.wafer, evaluator.yield_model, area)
        test_cost = evaluator.test_cost_per_mbit * (macro.size_bits / MBIT)
        assert batch.unit_cost[index] == silicon + test_cost
