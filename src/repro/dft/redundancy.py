"""Spare row/column repair allocation.

"As DRAMs include redundancy, the order of testing is (1) pre-fuse
testing, (2) fuse blowing, (3) post-fuse testing." (Section 6.)  Between
steps (1) and (2) sits the repair-allocation problem: given the failing
bitmap and R spare rows / C spare columns, choose which lines to replace
so every failing cell is covered.  The problem is NP-complete in general;
production allocators use the classic two-phase approach implemented
here:

1. **must-repair**: a row with more than C failing cells can only be
   fixed by a spare row (no column budget could cover it), and vice
   versa — these assignments are forced;
2. **greedy cover** on the remainder (pick the line covering the most
   uncovered faults), with a small exhaustive search fallback when the
   remaining problem is tiny, which makes the allocator exact for the
   fault counts redundancy is actually provisioned for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import RepairError


@dataclass(frozen=True)
class RepairPlan:
    """Outcome of spare allocation.

    Attributes:
        spare_rows_used: Row indices replaced by spare rows.
        spare_cols_used: Column indices replaced by spare columns.
        repaired: Whether every failing cell is covered.
        uncovered: Failing cells not covered (empty when repaired).
    """

    spare_rows_used: frozenset
    spare_cols_used: frozenset
    repaired: bool
    uncovered: frozenset

    @property
    def spares_used(self) -> int:
        return len(self.spare_rows_used) + len(self.spare_cols_used)

    def covers(self, cell: tuple) -> bool:
        row, col = cell
        return row in self.spare_rows_used or col in self.spare_cols_used


def allocate_spares(
    failing_cells: set,
    spare_rows: int,
    spare_cols: int,
    exhaustive_limit: int = 12,
) -> RepairPlan:
    """Allocate spare rows/columns to cover all failing cells.

    Args:
        failing_cells: Set of (row, col) failing cells.
        spare_rows: Available spare rows.
        spare_cols: Available spare columns.
        exhaustive_limit: If after must-repair at most this many distinct
            lines remain, solve exactly by enumeration.

    Returns:
        A :class:`RepairPlan`; ``repaired`` is False when the fault
        pattern exceeds the spare budget.

    Raises:
        RepairError: On negative spare budgets.
    """
    if spare_rows < 0 or spare_cols < 0:
        raise RepairError("spare budgets must be >= 0")
    remaining = set(failing_cells)
    used_rows: set = set()
    used_cols: set = set()

    # Phase 1: must-repair (iterate, as each forced repair can expose
    # new forced repairs through the shrinking budgets).
    changed = True
    while changed and remaining:
        changed = False
        rows_left = spare_rows - len(used_rows)
        cols_left = spare_cols - len(used_cols)
        by_row: dict = {}
        for r, c in remaining:
            by_row.setdefault(r, set()).add((r, c))
        for row, cells in list(by_row.items()):
            if len(cells) > cols_left and rows_left > 0:
                used_rows.add(row)
                remaining -= cells
                rows_left -= 1
                changed = True
        by_col: dict = {}
        for r, c in remaining:
            by_col.setdefault(c, set()).add((r, c))
        for col, cells in list(by_col.items()):
            if len(cells) > rows_left and cols_left > 0:
                used_cols.add(col)
                remaining -= cells
                cols_left -= 1
                changed = True

    rows_left = spare_rows - len(used_rows)
    cols_left = spare_cols - len(used_cols)

    if remaining:
        solution = _solve_remainder(
            remaining, rows_left, cols_left, exhaustive_limit
        )
        if solution is not None:
            extra_rows, extra_cols = solution
            used_rows |= extra_rows
            used_cols |= extra_cols
            remaining = {
                cell
                for cell in remaining
                if cell[0] not in extra_rows and cell[1] not in extra_cols
            }

    return RepairPlan(
        spare_rows_used=frozenset(used_rows),
        spare_cols_used=frozenset(used_cols),
        repaired=not remaining,
        uncovered=frozenset(remaining),
    )


def _solve_remainder(
    cells: set, rows_left: int, cols_left: int, exhaustive_limit: int
):
    """Cover ``cells`` with at most (rows_left, cols_left) lines.

    Returns (rows, cols) or None if infeasible.
    """
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    if len(rows) + len(cols) <= exhaustive_limit:
        exact = _exhaustive_cover(cells, rows, cols, rows_left, cols_left)
        if exact is not None:
            return exact
        return None
    return _greedy_cover(cells, rows_left, cols_left)


def _exhaustive_cover(cells, rows, cols, rows_left, cols_left):
    """Exact minimum line cover by enumeration over row subsets.

    Choosing which faulty rows get spare rows determines the columns
    forced to cover the rest, so enumerating row subsets is complete.
    """
    best = None
    for k in range(min(rows_left, len(rows)) + 1):
        if best is not None and k >= best[0]:
            break  # every cover from here on uses >= k lines
        for row_subset in itertools.combinations(rows, k):
            row_set = set(row_subset)
            needed_cols = {c for r, c in cells if r not in row_set}
            if len(needed_cols) <= cols_left:
                candidate = (row_set, needed_cols)
                size = len(row_set) + len(needed_cols)
                if best is None or size < best[0]:
                    best = (size, candidate)
    return best[1] if best else None


def _greedy_cover(cells, rows_left, cols_left):
    """Greedy set cover: repeatedly pick the line covering most faults."""
    remaining = set(cells)
    used_rows: set = set()
    used_cols: set = set()
    while remaining:
        by_row: dict = {}
        by_col: dict = {}
        for r, c in remaining:
            by_row.setdefault(r, set()).add((r, c))
            by_col.setdefault(c, set()).add((r, c))
        best_row = max(by_row.items(), key=lambda kv: len(kv[1]), default=None)
        best_col = max(by_col.items(), key=lambda kv: len(kv[1]), default=None)
        row_gain = len(best_row[1]) if best_row and len(used_rows) < rows_left else -1
        col_gain = len(best_col[1]) if best_col and len(used_cols) < cols_left else -1
        if row_gain <= 0 and col_gain <= 0:
            return None
        if row_gain >= col_gain:
            used_rows.add(best_row[0])
            remaining -= best_row[1]
        else:
            used_cols.add(best_col[0])
            remaining -= best_col[1]
    return used_rows, used_cols
