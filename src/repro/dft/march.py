"""March test algorithms.

A march test is a sequence of march elements; each element walks all
cells in ascending or descending address order applying a fixed sequence
of read/write operations.  Complexity is quoted in operations per cell:
MATS+ is 5N, March C- is 10N, March B is 17N.  "As DRAM test programs
include a lot of waiting, DRAM test times are quite high" — the retention
component is modeled by :func:`retention_test_time_s` and by pauses
between elements.

Tests execute against a :class:`~repro.dft.faults.FaultyArray`, so
detection is measured, not asserted: March C- detects all unlinked
stuck-at, transition and inversion coupling faults; MATS+ misses
transition and coupling faults — the coverage/test-time trade Section 6
alludes to ("the test concept should take this cost-reduction potential
into account").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.dft.faults import SIGNATURES, FaultyArray


class Direction(enum.Enum):
    """Address order of a march element."""

    UP = "up"
    DOWN = "down"
    EITHER = "either"


@dataclass(frozen=True)
class MarchElement:
    """One march element, e.g. up(r0, w1).

    Attributes:
        direction: Address order.
        operations: Sequence of operations from {"r0","r1","w0","w1"}.
    """

    direction: Direction
    operations: tuple

    def __post_init__(self) -> None:
        if not self.operations:
            raise ConfigurationError("march element needs operations")
        for op in self.operations:
            if op not in ("r0", "r1", "w0", "w1"):
                raise ConfigurationError(f"unknown march operation {op!r}")

    @property
    def ops_per_cell(self) -> int:
        return len(self.operations)

    def __str__(self) -> str:
        arrow = {"up": "⇑", "down": "⇓", "either": "⇕"}[self.direction.value]
        return f"{arrow}({','.join(self.operations)})"


@dataclass(frozen=True)
class MarchTest:
    """A complete march algorithm.

    Attributes:
        name: Algorithm name.
        elements: March elements in order.
        pause_after_element: Index of the element after which a retention
            pause is inserted, or None (used by the retention variant).
    """

    name: str
    elements: tuple
    pause_after_element: int | None = None

    def __post_init__(self) -> None:
        if not self.elements:
            raise ConfigurationError("march test needs elements")
        if self.pause_after_element is not None and not (
            0 <= self.pause_after_element < len(self.elements)
        ):
            raise ConfigurationError("pause index out of range")

    @cached_property
    def ops_per_cell(self) -> int:
        """The 'kN' complexity figure."""
        return sum(element.ops_per_cell for element in self.elements)

    def operation_count(self, cells: int) -> int:
        """Total tester operations for ``cells`` memory cells."""
        if cells < 1:
            raise ConfigurationError("cell count must be positive")
        return self.ops_per_cell * cells

    def run(
        self,
        array: FaultyArray,
        pause_s: float = 0.0,
    ) -> "MarchResult":
        """Execute the test against a faulty array.

        Returns a :class:`MarchResult` with the failing cells observed
        (cells where any read returned the unexpected value).

        Only coupling aggressors and victims
        (:meth:`FaultyArray.coupled_cells`) go through
        :meth:`FaultyArray.read` / :meth:`~FaultyArray.write`, in each
        element's address order, so they see the aggressor/victim
        sequence of a full walk.  Every other cell, healthy or faulty,
        behaves as its signature (:meth:`FaultyArray.signatures`:
        stored value plus stuck-at, transition and retention bits)
        dictates, so each signature replays the test once, on one
        representative cell (:meth:`_outcomes`), and the outcome is
        looked up for all cells of that class at once.  Failing cells
        enter ``failing_cells`` in the order a full cell-by-cell walk
        first flags them (:func:`repro.verify.march_reference` is that
        walk).
        """
        data = array._data.reshape(-1)
        faulty, codes = array.signatures()
        coupled = array.coupled_cells()
        final, fails = self._outcomes(pause_s)
        first_fail: dict = {}
        if coupled.size:
            uncoupled = ~np.isin(faulty, coupled)
            faulty, codes = faulty[uncoupled], codes[uncoupled]
            first_fail = self._walk(array, coupled.tolist(), pause_s)
            walked = data[coupled]
        # (element, flat address) of every failing cell, class by class:
        # faulty signatures, then healthy cells holding 0 or 1 (which
        # fail only under a march that reads before it writes), then the
        # walked cells.
        element = fails[codes]
        failing = element >= 0
        element, address = element[failing], faulty[failing]
        if fails[0] >= 0 or fails[1] >= 0:
            healthy = array._flags.reshape(-1) == 0
            healthy[coupled] = False
            for value in (0, 1):
                if fails[value] >= 0:
                    cells = np.flatnonzero(healthy & (data == value))
                    address = np.append(address, cells)
                    element = np.append(
                        element, np.full(cells.size, fails[value])
                    )
        if first_fail:
            address = np.append(address, list(first_fail))
            element = np.append(element, list(first_fail.values()))
        failing_cells: set = set()
        if address.size:
            address = address[
                np.argsort(self._walk_rank(element, address, data.size))
            ]
            rows, cols = divmod(address, array.cols)
            failing_cells = set(zip(rows.tolist(), cols.tolist()))
        # Final contents: healthy cells by stored value, in bulk; then
        # the faulty signatures and the walked cells.
        if final[0] == final[1]:
            data.fill(final[0])
        elif final[0]:
            np.logical_not(data, out=data)
        data[faulty] = final[codes]
        if coupled.size:
            data[coupled] = walked
        return MarchResult(
            test=self,
            failing_cells=failing_cells,
            operations=self.ops_per_cell * data.size,
        )

    def _walk(self, array: FaultyArray, cells: list, pause_s: float) -> dict:
        """Run the test on ``cells`` (ascending flat indices) one cell
        and one operation at a time, in each element's address order.

        Returns ``{cell: index of the element whose read first fails
        it}`` in the order the walk flags them.
        """
        cells = [(cell, *divmod(cell, array.cols)) for cell in cells]
        first_fail: dict = {}
        for index, element in enumerate(self.elements):
            order = (
                reversed(cells)
                if element.direction is Direction.DOWN
                else cells
            )
            for cell, row, col in order:
                for op in element.operations:
                    if op == "w0":
                        array.write(row, col, False)
                    elif op == "w1":
                        array.write(row, col, True)
                    elif array.read(row, col) is not (op == "r1"):
                        first_fail.setdefault(cell, index)
            if self.pause_after_element == index and pause_s > 0:
                array.pause(pause_s)
        return first_fail

    def _outcomes(self, pause_s: float) -> tuple:
        """``(final, fails)`` per signature for an uncoupled cell:
        ``final[k]`` is the value a cell of signature ``k`` holds after
        the test and ``fails[k]`` the index of the element whose read
        first fails it, or -1.

        Each signature is replayed once per test and pause outcome, on
        :meth:`FaultyArray.of_signatures`'s representative cells, so
        :class:`FaultyArray` alone defines how a cell behaves.
        """
        decays = pause_s > 0 and FaultyArray.decays(pause_s)
        outcome = self._replays.get(decays)
        if outcome is None:
            representatives = FaultyArray.of_signatures()
            first_fail = self._walk(
                representatives, list(range(SIGNATURES)), pause_s
            )
            fails = np.full(SIGNATURES, -1, dtype=np.intp)
            for signature, index in first_fail.items():
                fails[signature] = index
            outcome = (representatives._data[0].copy(), fails)
            self._replays[decays] = outcome
        return outcome

    @cached_property
    def _replays(self) -> dict:
        """:meth:`_outcomes` memo, keyed by whether the pause decays
        retention cells."""
        return {}

    @cached_property
    def _descending(self) -> np.ndarray:
        """Per element: whether it walks addresses in descending order."""
        return np.array(
            [element.direction is Direction.DOWN for element in self.elements]
        )

    def _walk_rank(
        self, element: np.ndarray, address: np.ndarray, cells: int
    ) -> np.ndarray:
        """Sort keys placing hits (``element`` index, flat row-major
        ``address``) where a cell-by-cell walk over ``cells`` cells
        visits them: by element, then in that element's address order
        (descending for ``DOWN``)."""
        return element * cells + np.where(
            self._descending[element], cells - 1 - address, address
        )


@dataclass(frozen=True)
class MarchResult:
    """Outcome of one march run.

    Attributes:
        test: The algorithm that ran.
        failing_cells: Cells observed to fail.
        operations: Tester operations executed.
    """

    test: MarchTest
    failing_cells: set
    operations: int

    def detected(self, ground_truth: set) -> float:
        """Fault coverage: fraction of truly faulty cells flagged."""
        if not ground_truth:
            return 1.0
        return len(self.failing_cells & ground_truth) / len(ground_truth)

    @property
    def passed(self) -> bool:
        return not self.failing_cells


_UP = Direction.UP
_DOWN = Direction.DOWN
_ANY = Direction.EITHER

#: MATS+: 5N.  Detects stuck-at faults only.
MATS_PLUS = MarchTest(
    name="MATS+",
    elements=(
        MarchElement(_ANY, ("w0",)),
        MarchElement(_UP, ("r0", "w1")),
        MarchElement(_DOWN, ("r1", "w0")),
    ),
)

#: March C-: 10N.  Detects stuck-at, transition, and coupling faults.
MARCH_C_MINUS = MarchTest(
    name="March C-",
    elements=(
        MarchElement(_ANY, ("w0",)),
        MarchElement(_UP, ("r0", "w1")),
        MarchElement(_UP, ("r1", "w0")),
        MarchElement(_DOWN, ("r0", "w1")),
        MarchElement(_DOWN, ("r1", "w0")),
        MarchElement(_ANY, ("r0",)),
    ),
)

#: March B: 17N.  Adds linked-fault coverage.
MARCH_B = MarchTest(
    name="March B",
    elements=(
        MarchElement(_ANY, ("w0",)),
        MarchElement(_UP, ("r0", "w1", "r1", "w0", "r0", "w1")),
        MarchElement(_UP, ("r1", "w0", "w1")),
        MarchElement(_DOWN, ("r1", "w0", "w1", "w0")),
        MarchElement(_DOWN, ("r0", "w1", "w0")),
    ),
)

#: March C- with a retention pause: write background, wait, read back.
MARCH_C_RETENTION = MarchTest(
    name="March C- + retention",
    elements=MARCH_C_MINUS.elements,
    pause_after_element=1,  # pause while the array holds the '1' background
)


def retention_test_time_s(
    n_pauses: int = 2, pause_s: float = 0.2
) -> float:
    """Pure waiting time of the retention portion of a test program.

    Two pauses (backgrounds of all-0 and all-1) of 100-500 ms each are
    typical; this waiting dominates DRAM test time and is independent of
    interface width — the reason parallelism alone cannot reduce DRAM
    test cost to logic-like levels.
    """
    if n_pauses < 0:
        raise ConfigurationError("pause count must be >= 0")
    if pause_s < 0:
        raise ConfigurationError("pause must be >= 0")
    return n_pauses * pause_s
