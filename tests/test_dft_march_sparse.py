"""The fault-sparse march equals the cell-by-cell reference walk.

``MarchTest.run`` walks only a die's coupling aggressors and victims
and settles every other cell by its signature (stored value plus
stuck-at, transition and retention bits), one replay per signature;
``repro.verify.march_reference`` walks every cell.  Over
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

from repro.dft.faults import (
    SIG_STUCK_0,
    SIG_STUCK_1,
    SIG_VALUE,
    SIGNATURES,
    Fault,
    FaultKind,
    FaultyArray,
    inject_random_faults,
)
from repro.dft.flow import TestFlow
from repro.dft.march import MARCH_C_MINUS, MARCH_C_RETENTION, MarchTest
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
    assert any(
        (fault["row"], fault["col"]) == (other["row"], other["col"])
        and other["kind"] != coupling
        for case in CASES
        for fault in case["faults"]
        if fault["kind"] == coupling
        for other in case["faults"]
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


#: A custom march that reads before it writes, as a case's ``march``.
READ_FIRST = [
    {"direction": "down", "ops": ["r1", "w0"]},
    {"direction": "up", "ops": ["r0", "w1", "r1"]},
    {"direction": "either", "ops": ["r0"]},
]


def _read_first_march() -> MarchTest:
    test, _ = build_march_case(
        {
            "rows": 1,
            "cols": 1,
            "faults": [],
            "march": READ_FIRST,
            "pause_after_element": 1,
        }
    )
    return test


def _crossing_lines_case(march) -> dict:
    """An 8x8 die whose word line 2 and bit line 5 cross at (2, 5).  The
    dead word line also holds an SA1, a TF and a RET cell and a coupling
    victim whose aggressor is off both lines; (6, 1) couples to
    itself.  The RET cell (1, 1) is also the victim of (1, 4): the
    read-first march flags its retention fault alone but not the two
    faults together, so the cell must be walked, not classed."""
    return {
        "rows": 8,
        "cols": 8,
        "faults": [
            {"kind": "WL", "row": 2, "col": 0},
            {"kind": "BL", "row": 0, "col": 5},
            {"kind": "SA1", "row": 2, "col": 1},
            {"kind": "TF", "row": 2, "col": 3},
            {"kind": "RET", "row": 2, "col": 6},
            {
                "kind": "CFin",
                "row": 2,
                "col": 7,
                "aggressor_row": 4,
                "aggressor_col": 3,
            },
            {
                "kind": "CFin",
                "row": 6,
                "col": 1,
                "aggressor_row": 6,
                "aggressor_col": 1,
            },
            {"kind": "RET", "row": 1, "col": 1},
            {
                "kind": "CFin",
                "row": 1,
                "col": 1,
                "aggressor_row": 1,
                "aggressor_col": 4,
            },
        ],
        "background_seed": 11,
        "pause_s": 0.2,
        "march": march,
    }


@pytest.mark.parametrize("march", sorted(BUILTIN_MARCHES))
@pytest.mark.parametrize("pause_s", [0.0, 0.2])
def test_crossing_lines_under_builtin_marches(march, pause_s):
    case = _crossing_lines_case(march)
    case["pause_s"] = pause_s
    assert check_march_sparse(case) == []


@pytest.mark.parametrize("pause_s", [0.0, 0.2])
def test_crossing_lines_under_read_first_march(pause_s):
    case = _crossing_lines_case(READ_FIRST)
    case["pause_after_element"] = 1
    case["pause_s"] = pause_s
    assert check_march_sparse(case) == []


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
    faulty, _ = fast_array.signatures()
    special = set(faulty.tolist()) | set(fast_array.coupled_cells().tolist())
    fast = test.run(fast_array, pause_s=0.2)
    reference = march_reference(test, reference_array, pause_s=0.2)
    healthy_failing = {
        (row, col)
        for row, col in reference.failing_cells
        if row * fast_array.cols + col not in special
    }
    assert healthy_failing  # the case is not trivially healthy-clean
    assert list(fast.failing_cells) == list(reference.failing_cells)
    assert fast.operations == reference.operations == 6 * 5 * 6
    assert np.array_equal(fast_array._data, reference_array._data)


def _accessed_cells(monkeypatch, array: FaultyArray) -> list:
    """Every ``(row, col)`` that :meth:`FaultyArray.read` / ``write``
    reach on ``array`` from now on, one entry per call."""
    cells: list = []
    for name in ("read", "write"):
        original = getattr(FaultyArray, name)

        def counted(self, row, col, *args, _original=original):
            if self is array:
                cells.append((row, col))
            return _original(self, row, col, *args)

        monkeypatch.setattr(FaultyArray, name, counted)
    return cells


@pytest.mark.parametrize("test", [MARCH_C_MINUS, MARCH_C_RETENTION])
def test_uncoupled_line_fault_die_makes_no_cell_accesses(
    monkeypatch, test
):
    array = inject_random_faults(64, 64, 3, n_line_faults=1, seed=9)
    assert array.faults[-1].kind is FaultKind.WORD_LINE
    reference = march_reference(test, copy.deepcopy(array), pause_s=0.2)
    accessed = _accessed_cells(monkeypatch, array)
    result = test.run(array, pause_s=0.2)
    assert accessed == []
    assert list(result.failing_cells) == list(reference.failing_cells)
    assert {(array.faults[-1].row, c) for c in range(64)} <= (
        result.failing_cells
    )


def test_coupled_die_accesses_only_aggressors_and_victims(monkeypatch):
    array = inject_random_faults(64, 64, 3, n_line_faults=1, seed=9)
    array.inject(
        Fault(kind=FaultKind.COUPLING_INV, row=40, col=7, aggressor=(3, 60))
    )
    array.inject(
        Fault(kind=FaultKind.COUPLING_INV, row=5, col=5, aggressor=(99, 0))
    )
    accessed = _accessed_cells(monkeypatch, array)
    MARCH_C_MINUS.run(array)
    assert set(accessed) == {(40, 7), (3, 60), (5, 5)}
    assert len(accessed) == 3 * MARCH_C_MINUS.ops_per_cell


def test_signatures_replay_once_per_test(monkeypatch):
    """A test replays the signatures on their representative cells on
    its first run only; later dies reuse the outcome."""
    test = MarchTest("copy", MARCH_C_MINUS.elements)
    calls: list = []
    original = FaultyArray.read

    def counted(self, row, col):
        calls.append((row, col))
        return original(self, row, col)

    monkeypatch.setattr(FaultyArray, "read", counted)
    test.run(inject_random_faults(8, 8, 2, seed=1))
    first = len(calls)
    assert first == SIGNATURES * 5  # March C- reads each cell 5 times
    test.run(inject_random_faults(8, 8, 2, seed=2))
    assert len(calls) == first


def test_aggressor_outside_array_is_never_written():
    array = FaultyArray(rows=3, cols=3)
    array.inject(
        Fault(kind=FaultKind.COUPLING_INV, row=1, col=1, aggressor=(5, 5))
    )
    reference = FaultyArray(rows=3, cols=3, faults=list(array.faults))
    assert MARCH_C_MINUS.run(array).failing_cells == march_reference(
        MARCH_C_MINUS, reference
    ).failing_cells == set()


def test_signatures_and_coupled_cells_split_the_faults():
    array = FaultyArray(rows=4, cols=4)
    array.write(1, 2, True)
    array.inject(Fault(kind=FaultKind.BIT_LINE, row=0, col=2))
    array.inject(Fault(kind=FaultKind.STUCK_AT_1, row=1, col=2))
    array.inject(
        Fault(kind=FaultKind.COUPLING_INV, row=0, col=0, aggressor=(3, 3))
    )
    cells, codes = array.signatures()
    assert cells.tolist() == [2, 6, 10, 14]  # the dead bit line
    assert codes.tolist() == [
        SIG_STUCK_0,
        SIG_STUCK_0 | SIG_STUCK_1 | SIG_VALUE,
        SIG_STUCK_0,
        SIG_STUCK_0,
    ]
    assert array.coupled_cells().tolist() == [0, 15]


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
