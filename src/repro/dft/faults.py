"""DRAM fault models and a fault-injectable memory array.

"The fault models of DRAMs explicitly tested for are much richer; they
include bit-line and word-line failures, cross-talk, retention time
failures etc." (Section 6.)

:class:`FaultyArray` is a behavioural (row x column) bit array into which
faults are injected; march tests from :mod:`repro.dft.march` read and
write it through the same interface a tester would, so detection is
*observed*, not assumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """Supported fault models."""

    STUCK_AT_0 = "SA0"
    STUCK_AT_1 = "SA1"
    TRANSITION = "TF"  # cell cannot make the 0->1 transition
    COUPLING_INV = "CFin"  # write to aggressor inverts victim
    WORD_LINE = "WL"  # whole row dead (reads 0)
    BIT_LINE = "BL"  # whole column dead (reads 0)
    RETENTION = "RET"  # cell leaks to 0 after a pause


@dataclass(frozen=True)
class Fault:
    """One injected fault.

    Attributes:
        kind: Fault model.
        row: Victim row.
        col: Victim column.
        aggressor: (row, col) of the coupling aggressor, for CFin.
    """

    kind: FaultKind
    row: int
    col: int
    aggressor: tuple | None = None

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ConfigurationError("fault coordinates must be >= 0")
        if self.kind is FaultKind.COUPLING_INV and self.aggressor is None:
            raise ConfigurationError("coupling fault needs an aggressor")


@dataclass
class FaultyArray:
    """A (rows x cols) one-bit-per-cell array with injected faults.

    Reads and writes go through :meth:`read` / :meth:`write`;
    :meth:`pause` models a retention wait.  The ground-truth fault list
    is available to evaluate test coverage.
    """

    rows: int
    cols: int
    faults: list = field(default_factory=list)

    _data: np.ndarray = field(init=False, repr=False)
    _stuck0: np.ndarray = field(init=False, repr=False)
    _stuck1: np.ndarray = field(init=False, repr=False)
    _transition: np.ndarray = field(init=False, repr=False)
    _retention: np.ndarray = field(init=False, repr=False)
    _couplings: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("array dimensions must be positive")
        self._data = np.zeros((self.rows, self.cols), dtype=bool)
        self._stuck0 = np.zeros((self.rows, self.cols), dtype=bool)
        self._stuck1 = np.zeros((self.rows, self.cols), dtype=bool)
        self._transition = np.zeros((self.rows, self.cols), dtype=bool)
        self._retention = np.zeros((self.rows, self.cols), dtype=bool)
        for fault in self.faults:
            self._apply_fault(fault)

    def _apply_fault(self, fault: Fault) -> None:
        if fault.row >= self.rows or fault.col >= self.cols:
            raise ConfigurationError(
                f"fault at ({fault.row}, {fault.col}) outside "
                f"{self.rows}x{self.cols} array"
            )
        if fault.kind is FaultKind.STUCK_AT_0:
            self._stuck0[fault.row, fault.col] = True
        elif fault.kind is FaultKind.STUCK_AT_1:
            self._stuck1[fault.row, fault.col] = True
        elif fault.kind is FaultKind.TRANSITION:
            self._transition[fault.row, fault.col] = True
        elif fault.kind is FaultKind.WORD_LINE:
            self._stuck0[fault.row, :] = True
        elif fault.kind is FaultKind.BIT_LINE:
            self._stuck0[:, fault.col] = True
        elif fault.kind is FaultKind.RETENTION:
            self._retention[fault.row, fault.col] = True
        elif fault.kind is FaultKind.COUPLING_INV:
            assert fault.aggressor is not None
            victims = self._couplings.setdefault(fault.aggressor, [])
            victim = (fault.row, fault.col)
            # Dedupe: the same coupling injected twice must not invert
            # the victim twice per aggressor write (which would cancel
            # and hide the fault from every test).
            if victim not in victims:
                victims.append(victim)

    def inject(self, fault: Fault) -> None:
        """Add a fault after construction."""
        self.faults.append(fault)
        self._apply_fault(fault)

    # -- tester-visible interface ------------------------------------------------

    def write(self, row: int, col: int, value: bool) -> None:
        self._check(row, col)
        if self._transition[row, col] and value and not self._data[row, col]:
            return  # 0->1 transition fails silently
        self._data[row, col] = value
        for victim in self._couplings.get((row, col), []):
            self._data[victim] = ~self._data[victim]

    def read(self, row: int, col: int) -> bool:
        self._check(row, col)
        if self._stuck0[row, col]:
            return False
        if self._stuck1[row, col]:
            return True
        return bool(self._data[row, col])

    def pause(self, seconds: float, retention_threshold_s: float = 0.1) -> None:
        """Model a retention wait: leaky cells decay to 0 if the pause
        *exceeds* their (degraded) retention.  A pause of exactly the
        threshold is the last surviving refresh interval, not a failure."""
        if seconds < 0:
            raise ConfigurationError("pause must be >= 0")
        if retention_threshold_s <= 0:
            raise ConfigurationError(
                "retention_threshold_s must be positive"
            )
        if seconds > retention_threshold_s:
            self._data[self._retention] = False

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"access ({row}, {col}) outside {self.rows}x{self.cols}"
            )

    # -- ground truth --------------------------------------------------------

    def footprint(self) -> np.ndarray:
        """Mask of the cells that can behave unlike a healthy cell.

        Every stuck-at, transition and retention cell (line faults
        included) plus every coupling aggressor and victim.  Aggressors
        outside the array are left out: no access ever reaches them.
        Any other cell reads back exactly what was last written to it.
        """
        mask = self._stuck0 | self._stuck1 | self._transition | self._retention
        for (row, col), victims in self._couplings.items():
            if 0 <= row < self.rows and 0 <= col < self.cols:
                mask[row, col] = True
            for victim in victims:
                mask[victim] = True
        return mask

    def faulty_cells(self) -> set:
        """Ground-truth set of (row, col) cells belonging to any fault."""
        cells: set = set()
        for fault in self.faults:
            if fault.kind is FaultKind.WORD_LINE:
                cells.update((fault.row, c) for c in range(self.cols))
            elif fault.kind is FaultKind.BIT_LINE:
                cells.update((r, fault.col) for r in range(self.rows))
            else:
                cells.add((fault.row, fault.col))
        return cells


def inject_random_faults(
    rows: int,
    cols: int,
    n_cell_faults: int,
    n_line_faults: int = 0,
    seed: int = 0,
    include_retention: bool = True,
) -> FaultyArray:
    """Build an array with randomly placed faults (reproducible).

    Args:
        rows: Array rows.
        cols: Array columns.
        n_cell_faults: Single-cell faults (mix of SA0/SA1/TF/RET).
        n_line_faults: Whole word-line / bit-line failures.
        seed: RNG seed.
        include_retention: Include retention faults in the mix.
    """
    if n_cell_faults < 0 or n_line_faults < 0:
        raise ConfigurationError("fault counts must be >= 0")
    if n_cell_faults > rows * cols:
        # Without this guard the unique-placement loop below can never
        # terminate once every cell is already faulty.
        raise ConfigurationError(
            f"n_cell_faults ({n_cell_faults}) exceeds the "
            f"{rows}x{cols} array capacity ({rows * cols})"
        )
    n_wordline = (n_line_faults + 1) // 2
    n_bitline = n_line_faults // 2
    if n_wordline > rows or n_bitline > cols:
        raise ConfigurationError(
            f"n_line_faults ({n_line_faults}) needs {n_wordline} rows "
            f"and {n_bitline} cols but the array is {rows}x{cols}"
        )
    rng = np.random.default_rng(seed)
    kinds = [FaultKind.STUCK_AT_0, FaultKind.STUCK_AT_1, FaultKind.TRANSITION]
    if include_retention:
        kinds.append(FaultKind.RETENTION)
    array = FaultyArray(rows=rows, cols=cols)
    used: set = set()
    for _ in range(n_cell_faults):
        while True:
            r, c = int(rng.integers(rows)), int(rng.integers(cols))
            if (r, c) not in used:
                used.add((r, c))
                break
        kind = kinds[int(rng.integers(len(kinds)))]
        array.inject(Fault(kind=kind, row=r, col=c))
    used_rows: set = set()
    used_cols: set = set()
    for i in range(n_line_faults):
        # Dedupe line faults: the same dead row drawn twice would count
        # as two ground-truth faults while killing only one line.
        if i % 2 == 0:
            while True:
                r = int(rng.integers(rows))
                if r not in used_rows:
                    used_rows.add(r)
                    break
            array.inject(Fault(kind=FaultKind.WORD_LINE, row=r, col=0))
        else:
            while True:
                c = int(rng.integers(cols))
                if c not in used_cols:
                    used_cols.add(c)
                    break
            array.inject(Fault(kind=FaultKind.BIT_LINE, row=0, col=c))
    return array
