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

import numpy as np

from repro.errors import ConfigurationError
from repro.dft.faults import FaultyArray


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

    @property
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

        Only the array's fault footprint (:meth:`FaultyArray.footprint`)
        goes through :meth:`FaultyArray.read` / :meth:`~FaultyArray.write`,
        in each element's address order, so coupling faults see the
        aggressor/victim sequence of a full walk.  Every other cell reads
        back what was last written to it, so all healthy cells holding
        one value share one outcome: each such group replays the
        operation sequence once and is updated in bulk.  Failing cells
        enter ``failing_cells`` in the order a full cell-by-cell walk
        first flags them (:func:`repro.verify.march_reference` is that
        walk).
        """
        footprint = array.footprint()
        cells = [tuple(cell) for cell in np.argwhere(footprint).tolist()]
        first_fail: dict = {}
        for index, element in enumerate(self.elements):
            order = (
                reversed(cells)
                if element.direction is Direction.DOWN
                else cells
            )
            for row, col in order:
                for op in element.operations:
                    if op == "w0":
                        array.write(row, col, False)
                    elif op == "w1":
                        array.write(row, col, True)
                    elif array.read(row, col) is not (op == "r1"):
                        first_fail.setdefault((row, col), index)
            if self.pause_after_element == index and pause_s > 0:
                array.pause(pause_s)
        flagged = [
            (index, row, col) for (row, col), index in first_fail.items()
        ]
        data, healthy = array._data, ~footprint
        groups = [
            (value, healthy & (data == value)) for value in (False, True)
        ]
        for value, group in groups:
            final, index = self._replay(value)
            data[group] = final
            if index is not None:
                flagged.extend(
                    (index, row, col)
                    for row, col in np.argwhere(group).tolist()
                )
        flagged.sort(key=lambda hit: self._walk_rank(hit, array.cols))
        return MarchResult(
            test=self,
            failing_cells={(row, col) for _, row, col in flagged},
            operations=self.operation_count(array.rows * array.cols),
        )

    def _replay(self, value: bool) -> tuple:
        """Final value of a healthy cell that starts at ``value``, and
        the index of the element whose read first fails it (or None)."""
        first_fail = None
        for index, element in enumerate(self.elements):
            for op in element.operations:
                if op[0] == "w":
                    value = op == "w1"
                elif value is not (op == "r1") and first_fail is None:
                    first_fail = index
        return value, first_fail

    def _walk_rank(self, hit: tuple, cols: int) -> tuple:
        """Sort key placing ``(element, row, col)`` where a cell-by-cell
        walk visits it: by element, then in that element's address
        order (row-major, descending for ``DOWN``)."""
        index, row, col = hit
        address = row * cols + col
        if self.elements[index].direction is Direction.DOWN:
            address = -address
        return index, address


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
