"""The fault-sparse march equals the cell-by-cell reference walk.

``MarchTest.run`` walks only a die's fault footprint and updates healthy
cells in bulk; ``repro.verify.march_reference`` walks every cell.  Over
seeded fault maps both must give the same failing cells, inserted in the
same order (``allocate_spares`` breaks ties in set-iteration order), the
same operation count and the same final cell contents; over production
dies ``TestFlow.process_die`` must give the same category and repair
plan on both paths.  The generator and check are those of the
``march_sparse`` fuzz property.
"""

import copy
import random

import numpy as np
import pytest

from repro.dft.faults import Fault, FaultKind, FaultyArray
from repro.dft.flow import TestFlow
from repro.dft.march import (
    MARCH_C_MINUS,
    Direction,
    MarchElement,
    MarchTest,
)
from repro.verify import march_reference
from repro.verify.march import (
    BUILTIN_MARCHES,
    build_march_case,
    check_march_sparse,
    gen_march_case,
)

N_CASES = 240

CASES = [gen_march_case(random.Random(f"march:{i}")) for i in range(N_CASES)]


def test_generated_maps_match_reference():
    failures = {
        index: messages
        for index, case in enumerate(CASES)
        if (messages := check_march_sparse(case))
    }
    assert not failures, failures


def test_generated_maps_cover_the_fault_space():
    faults = [fault for case in CASES for fault in case["faults"]]
    assert {fault["kind"] for fault in faults} == {
        kind.value for kind in FaultKind
    }
    coupling = FaultKind.COUPLING_INV.value
    couplings = [fault for fault in faults if fault["kind"] == coupling]
    assert any(
        (fault["aggressor_row"], fault["aggressor_col"])
        == (fault["row"], fault["col"])
        for fault in couplings
    )
    assert any(
        case["faults"].count(fault) > 1
        for case in CASES
        for fault in case["faults"]
        if fault["kind"] == coupling
    )
    assert any(case["background_seed"] is not None for case in CASES)
    builtins = {
        (case["march"], case["pause_s"])
        for case in CASES
        if isinstance(case["march"], str)
    }
    assert builtins == {
        (name, pause) for name in BUILTIN_MARCHES for pause in (0.0, 0.2)
    }
    assert any(not isinstance(case["march"], str) for case in CASES)
    assert {case["rows"] for case in CASES} == set(range(1, 13))
    assert {case["cols"] for case in CASES} == set(range(1, 13))


@pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (12, 12)])
@pytest.mark.parametrize("march", sorted(BUILTIN_MARCHES))
@pytest.mark.parametrize("pause_s", [0.0, 0.2])
def test_builtin_marches_at_shape_extremes(shape, march, pause_s):
    rows, cols = shape
    faults = [
        {"kind": "SA0", "row": 0, "col": 0},
        {"kind": "RET", "row": rows - 1, "col": cols - 1},
        {"kind": "TF", "row": rows // 2, "col": cols // 2},
        {
            "kind": "CFin",
            "row": rows - 1,
            "col": 0,
            "aggressor_row": 0,
            "aggressor_col": cols - 1,
        },
        {"kind": "WL", "row": rows // 2, "col": 0},
    ]
    case = {
        "rows": rows,
        "cols": cols,
        "faults": faults,
        "background_seed": 7,
        "pause_s": pause_s,
        "march": march,
    }
    assert check_march_sparse(case) == []


def _read_first_march() -> MarchTest:
    return MarchTest(
        name="read first",
        elements=(
            MarchElement(Direction.DOWN, ("r1", "w0")),
            MarchElement(Direction.UP, ("r0", "w1", "r1")),
            MarchElement(Direction.EITHER, ("r0",)),
        ),
        pause_after_element=1,
    )


def test_read_before_write_fails_healthy_cells_in_walk_order():
    """A march that reads before it writes flags healthy cells too; they
    enter ``failing_cells`` in the reference walk's order."""
    test = _read_first_march()
    params = {
        "rows": 6,
        "cols": 5,
        "faults": [
            {"kind": "SA1", "row": 2, "col": 3},
            {
                "kind": "CFin",
                "row": 4,
                "col": 1,
                "aggressor_row": 1,
                "aggressor_col": 1,
            },
        ],
        "background_seed": 3,
        "pause_s": 0.2,
        "march": "MATS+",
    }
    _, make_array = build_march_case(params)
    fast_array, reference_array = make_array(), make_array()
    footprint = fast_array.footprint()
    fast = test.run(fast_array, pause_s=0.2)
    reference = march_reference(test, reference_array, pause_s=0.2)
    healthy_failing = {
        cell for cell in reference.failing_cells if not footprint[cell]
    }
    assert healthy_failing  # the case is not trivially healthy-clean
    assert list(fast.failing_cells) == list(reference.failing_cells)
    assert fast.operations == reference.operations == 6 * 5 * 6
    assert np.array_equal(fast_array._data, reference_array._data)


def test_aggressor_outside_array_is_never_written():
    array = FaultyArray(rows=3, cols=3)
    array.inject(
        Fault(kind=FaultKind.COUPLING_INV, row=1, col=1, aggressor=(5, 5))
    )
    reference = FaultyArray(rows=3, cols=3, faults=list(array.faults))
    assert MARCH_C_MINUS.run(array).failing_cells == march_reference(
        MARCH_C_MINUS, reference
    ).failing_cells == set()


def test_footprint_covers_faults_and_couplings():
    array = FaultyArray(rows=4, cols=4)
    array.inject(Fault(kind=FaultKind.BIT_LINE, row=0, col=2))
    array.inject(
        Fault(kind=FaultKind.COUPLING_INV, row=0, col=0, aggressor=(3, 3))
    )
    expected = {(r, 2) for r in range(4)} | {(0, 0), (3, 3)}
    assert {tuple(cell) for cell in np.argwhere(array.footprint())} == expected


# -- the production flow on both paths ----------------------------------------

#: (flow, dies, categories seen): small dense dies exercise repair ties
#: and scrap; a few full-size E09 dies pin the production shape.  525
#: dies in all.
FLOWS = [
    (
        TestFlow(
            rows=16, cols=16, mean_faults_per_die=4.0, line_fault_rate=0.3
        ),
        250,
        {"perfect", "repaired", "scrap"},
    ),
    (
        TestFlow(
            rows=16,
            cols=16,
            mean_faults_per_die=4.0,
            line_fault_rate=0.3,
            waive_retention_only=True,
        ),
        250,
        {"perfect", "repaired", "scrap", "waived"},
    ),
    (TestFlow(mean_faults_per_die=1.2), 25, {"perfect", "repaired"}),
]


def _dies(flow: TestFlow, dies: int, seed: int) -> list:
    """The dies ``flow.run_lot(dies, seed)`` processes."""
    rng = np.random.default_rng(seed)
    return [
        flow._build_die(rng, seed=seed * 100_003 + index)
        for index in range(dies)
    ]


@pytest.mark.parametrize(
    "flow, dies, categories", FLOWS, ids=["strict", "waived", "e09"]
)
def test_flow_dies_match_reference(
    flow, dies, categories, use_reference_march
):
    arrays = _dies(flow, dies, seed=dies)
    fast = [flow.process_die(copy.deepcopy(array)) for array in arrays]
    use_reference_march()
    reference = [flow.process_die(array) for array in arrays]
    assert fast == reference
    assert {category for category, _ in fast} == categories
