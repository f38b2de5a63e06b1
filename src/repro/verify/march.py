"""The cell-by-cell march walk: reference oracle for the class-replay march.

:meth:`repro.dft.march.MarchTest.run` walks only a die's coupling
aggressors and victims and settles every other cell by its signature
(stored value plus stuck-at, transition and retention bits), replaying
each signature once on a representative cell.
:func:`march_reference` is the walk it replaces: every cell of every
element, in address order, each operation through
:meth:`FaultyArray.read` / :meth:`FaultyArray.write`.
:func:`check_march_sparse` runs both on identical arrays and diffs the
failing cells (their insertion order included, which
:func:`~repro.dft.redundancy.allocate_spares` breaks ties by), the
operation count and the final cell contents; :func:`gen_march_case`
draws the fault maps it is fuzzed over (the ``march_sparse`` property).
"""

from __future__ import annotations

import random

import numpy as np

from repro.dft.faults import Fault, FaultKind, FaultyArray
from repro.dft.march import (
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_C_RETENTION,
    MATS_PLUS,
    Direction,
    MarchElement,
    MarchResult,
    MarchTest,
)

#: The built-in marches a generated case may name.
BUILTIN_MARCHES = {
    test.name: test
    for test in (MATS_PLUS, MARCH_C_MINUS, MARCH_B, MARCH_C_RETENTION)
}


def march_reference(
    test: MarchTest, array: FaultyArray, pause_s: float = 0.0
) -> MarchResult:
    """Run ``test`` on ``array`` one cell and one operation at a time."""
    failing: set = set()
    operations = 0
    for index, element in enumerate(test.elements):
        for row, col in _addresses(array, element.direction):
            for op in element.operations:
                operations += 1
                if op == "w0":
                    array.write(row, col, False)
                elif op == "w1":
                    array.write(row, col, True)
                elif op == "r0":
                    if array.read(row, col) is not False:
                        failing.add((row, col))
                elif op == "r1":
                    if array.read(row, col) is not True:
                        failing.add((row, col))
        if test.pause_after_element == index and pause_s > 0:
            array.pause(pause_s)
    return MarchResult(test=test, failing_cells=failing, operations=operations)


def _addresses(array: FaultyArray, direction: Direction):
    rows = range(array.rows)
    if direction is Direction.DOWN:
        rows = range(array.rows - 1, -1, -1)
    for row in rows:
        cols = range(array.cols)
        if direction is Direction.DOWN:
            cols = range(array.cols - 1, -1, -1)
        for col in cols:
            yield row, col


# -- differential check -------------------------------------------------------


def gen_march_case(rng: random.Random) -> dict:
    """A random fault map, background and march (JSON-able).

    Shapes run from 1x1 to 12x12 and faults cover every
    :class:`FaultKind`, self-coupling, duplicate couplings and coupling
    victims that carry another fault included.
    One case in four runs a random custom march, which may read a cell
    before writing it, so healthy cells fail too.
    """
    rows, cols = rng.randint(1, 12), rng.randint(1, 12)
    kinds = [kind.value for kind in FaultKind]
    faults: list = []
    for _ in range(rng.randint(0, 6)):
        if faults and rng.random() < 0.15:
            faults.append(dict(rng.choice(faults)))  # duplicate
            continue
        fault = {
            "kind": rng.choice(kinds),
            "row": rng.randrange(rows),
            "col": rng.randrange(cols),
        }
        if fault["kind"] == FaultKind.COUPLING_INV.value:
            if faults and rng.random() < 0.3:
                # A victim that carries another fault (or sits on a
                # dead line): walked, yet faulty on its own.
                host = rng.choice(faults)
                fault["row"], fault["col"] = host["row"], host["col"]
            self_coupled = rng.random() < 0.2
            fault["aggressor_row"] = (
                fault["row"] if self_coupled else rng.randrange(rows)
            )
            fault["aggressor_col"] = (
                fault["col"] if self_coupled else rng.randrange(cols)
            )
        faults.append(fault)
    case = {
        "rows": rows,
        "cols": cols,
        "faults": faults,
        "background_seed": rng.choice([None, rng.randrange(1 << 16)]),
        "pause_s": rng.choice([0.0, 0.2]),
    }
    if rng.random() < 0.25:
        elements = [
            {
                "direction": rng.choice([d.value for d in Direction]),
                "ops": [
                    rng.choice(["r0", "r1", "w0", "w1"])
                    for _ in range(rng.randint(1, 4))
                ],
            }
            for _ in range(rng.randint(1, 4))
        ]
        case["march"] = elements
        case["pause_after_element"] = rng.choice(
            [None, rng.randrange(len(elements))]
        )
    else:
        case["march"] = rng.choice(sorted(BUILTIN_MARCHES))
    return case


def build_march_case(params: dict) -> tuple:
    """``(test, make_array)`` for a case; each ``make_array()`` call
    returns a fresh, identical array."""
    march = params["march"]
    if isinstance(march, str):
        test = BUILTIN_MARCHES[march]
    else:
        test = MarchTest(
            name="custom",
            elements=tuple(
                MarchElement(
                    Direction(element["direction"]), tuple(element["ops"])
                )
                for element in march
            ),
            pause_after_element=params.get("pause_after_element"),
        )
    rows, cols = params["rows"], params["cols"]
    faults = [
        Fault(
            kind=FaultKind(fault["kind"]),
            row=fault["row"],
            col=fault["col"],
            aggressor=(
                (fault["aggressor_row"], fault["aggressor_col"])
                if "aggressor_row" in fault
                else None
            ),
        )
        for fault in params["faults"]
    ]
    seed = params.get("background_seed")
    background = (
        np.random.default_rng(seed).random((rows, cols)) < 0.5
        if seed is not None
        else None
    )

    def make_array() -> FaultyArray:
        array = FaultyArray(rows=rows, cols=cols)
        if background is not None:
            for row, col in np.argwhere(background).tolist():
                array.write(row, col, True)
        for fault in faults:
            array.inject(fault)
        return array

    return test, make_array


def check_march_sparse(params: dict) -> list:
    """The sparse march equals :func:`march_reference` on one case."""
    test, make_array = build_march_case(params)
    pause_s = params["pause_s"]
    fast_array, reference_array = make_array(), make_array()
    fast = test.run(fast_array, pause_s=pause_s)
    reference = march_reference(test, reference_array, pause_s=pause_s)
    messages = []
    if list(fast.failing_cells) != list(reference.failing_cells):
        messages.append(
            f"failing cells {sorted(fast.failing_cells)} != reference "
            f"{sorted(reference.failing_cells)}"
            if fast.failing_cells != reference.failing_cells
            else "failing cells equal but in a different set order"
        )
    if fast.operations != reference.operations:
        messages.append(
            f"operations {fast.operations} != reference "
            f"{reference.operations}"
        )
    diff = np.argwhere(fast_array._data != reference_array._data)
    if diff.size:
        messages.append(
            f"final cell contents differ at {diff.tolist()[:8]}"
        )
    return messages
