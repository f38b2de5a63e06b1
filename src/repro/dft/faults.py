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


#: Bits of a cell's signature (:meth:`FaultyArray.signatures`): the value
#: it stores and the uncoupled faults it carries.  Two cells with one
#: signature and no coupling behave alike under any access sequence.
SIG_VALUE = 1
SIG_STUCK_0 = 2
SIG_STUCK_1 = 4
SIG_TRANSITION = 8
SIG_RETENTION = 16
#: Number of distinct signatures.
SIGNATURES = 32

_NO_CELLS = np.empty(0, dtype=np.intp)


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
    #: Uncoupled fault bits per cell (``SIG_*`` except ``SIG_VALUE``).
    _flags: np.ndarray = field(init=False, repr=False)
    _couplings: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("array dimensions must be positive")
        self._data = np.zeros((self.rows, self.cols), dtype=bool)
        self._flags = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for fault in self.faults:
            self._apply_fault(fault)

    def _apply_fault(self, fault: Fault) -> None:
        if fault.row >= self.rows or fault.col >= self.cols:
            raise ConfigurationError(
                f"fault at ({fault.row}, {fault.col}) outside "
                f"{self.rows}x{self.cols} array"
            )
        if fault.kind is FaultKind.STUCK_AT_0:
            self._flags[fault.row, fault.col] |= SIG_STUCK_0
        elif fault.kind is FaultKind.STUCK_AT_1:
            self._flags[fault.row, fault.col] |= SIG_STUCK_1
        elif fault.kind is FaultKind.TRANSITION:
            self._flags[fault.row, fault.col] |= SIG_TRANSITION
        elif fault.kind is FaultKind.WORD_LINE:
            self._flags[fault.row, :] |= SIG_STUCK_0
        elif fault.kind is FaultKind.BIT_LINE:
            self._flags[:, fault.col] |= SIG_STUCK_0
        elif fault.kind is FaultKind.RETENTION:
            self._flags[fault.row, fault.col] |= SIG_RETENTION
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
        if (
            self._flags.item(row, col) & SIG_TRANSITION
            and value
            and not self._data.item(row, col)
        ):
            return  # 0->1 transition fails silently
        self._data[row, col] = value
        for victim in self._couplings.get((row, col), []):
            self._data[victim] = ~self._data[victim]

    def read(self, row: int, col: int) -> bool:
        self._check(row, col)
        flags = self._flags.item(row, col)
        if flags & SIG_STUCK_0:
            return False
        if flags & SIG_STUCK_1:
            return True
        return self._data.item(row, col)

    def pause(self, seconds: float, retention_threshold_s: float = 0.1) -> None:
        """Model a retention wait: leaky cells decay to 0 if
        :meth:`decays` says the pause drains them."""
        if self.decays(seconds, retention_threshold_s):
            self._data[(self._flags & SIG_RETENTION) != 0] = False

    @staticmethod
    def decays(seconds: float, retention_threshold_s: float = 0.1) -> bool:
        """Whether a pause of ``seconds`` drains a retention cell: only
        one that *exceeds* the cell's (degraded) retention does.  A pause
        of exactly the threshold is the last surviving refresh interval,
        not a failure."""
        if seconds < 0:
            raise ConfigurationError("pause must be >= 0")
        if retention_threshold_s <= 0:
            raise ConfigurationError(
                "retention_threshold_s must be positive"
            )
        return seconds > retention_threshold_s

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"access ({row}, {col}) outside {self.rows}x{self.cols}"
            )

    # -- cell classes --------------------------------------------------------

    def signatures(self) -> tuple:
        """``(cells, codes)``: the ascending flat (row-major) indices of
        the cells that carry a stuck-at, transition or retention bit, and
        each one's signature, its fault bits OR-ed with its stored value
        (``SIG_VALUE``).  Every other cell's signature is its stored
        value.  Coupling is not part of a signature;
        :meth:`coupled_cells` lists the cells it touches."""
        flags = self._flags.reshape(-1)
        cells = np.flatnonzero(flags != 0)
        return cells, flags[cells] | self._data.reshape(-1)[cells]

    def coupled_cells(self) -> np.ndarray:
        """Ascending flat indices of every coupling victim and every
        aggressor inside the array: the cells whose behaviour depends
        on another cell."""
        if not self._couplings:
            return _NO_CELLS
        cells: set = set()
        for (row, col), victims in self._couplings.items():
            if 0 <= row < self.rows and 0 <= col < self.cols:
                cells.add(row * self.cols + col)
            cells.update(r * self.cols + c for r, c in victims)
        return np.array(sorted(cells), dtype=np.intp)

    @classmethod
    def of_signatures(cls) -> "FaultyArray":
        """A 1 x :data:`SIGNATURES` array whose cell ``k`` has
        signature ``k``: one representative of every cell class."""
        array = cls(rows=1, cols=SIGNATURES)
        codes = np.arange(SIGNATURES, dtype=np.uint8)
        array._flags[0] = codes & ~np.uint8(SIG_VALUE)
        array._data[0] = (codes & SIG_VALUE) != 0
        return array

    # -- ground truth --------------------------------------------------------

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
    # The stream of ``default_rng(seed)``, without its argument dispatch.
    rng = np.random.Generator(np.random.PCG64(seed))
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
