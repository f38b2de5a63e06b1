"""Pareto-frontier extraction over solution metrics.

All objectives are *minimized*; callers encode maximize-objectives by
negation (as :meth:`SolutionMetrics.objective_tuple` does for bandwidth).

Two interchangeable engines compute the frontier:

* ``"python"`` — the reference O(n^2) pairwise loop;
* ``"numpy"`` — the same pairwise dominance test in C, accumulated one
  objective column at a time over ``(block, n)`` boolean planes (still
  O(n^2) comparisons; this is the hot path of a design-space
  exploration, where n runs into the hundreds).

``"auto"`` (the default) picks numpy whenever the objective vectors are
numeric.  Both engines return identical frontiers — order, ties and
duplicate handling included — which ``tests/test_core_parallel.py``
pins and ``tests/test_verify_pareto_property.py`` fuzzes.

Tie and NaN semantics (identical across engines by construction):
equal vectors never dominate each other, so duplicates all survive the
dominance test and the shared seen-set then keeps only the first
occurrence, comparing vectors by value (so ``-0.0`` duplicates ``0.0``).
Every comparison against NaN is false in both engines, so a vector
containing NaN neither dominates nor is dominated, and equals no other
vector: every one of them lands on the frontier.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.errors import ConfigurationError

T = TypeVar("T")

#: Engines recognised by :func:`pareto_frontier`.
_ENGINES = ("auto", "numpy", "python")

#: Above this many items the numpy engine tests dominance in row blocks
#: to bound the broadcast's O(n^2) temporary memory.
_BLOCK_ROWS = 2048


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if objective vector ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse in every objective and
    strictly better in at least one (all objectives minimized).
    """
    if len(a) != len(b):
        raise ConfigurationError(
            f"objective vectors differ in length: {len(a)} vs {len(b)}"
        )
    if not a:
        raise ConfigurationError("objective vectors must be non-empty")
    no_worse = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return no_worse and strictly_better


def _is_repeat(vector: tuple, seen: set) -> bool:
    """Whether ``vector`` equals, by value, a vector already kept.

    Tuple equality short-cuts on identity, so a reused NaN object would
    match itself; the NaN check keeps NaN unequal to everything.
    """
    return vector in seen and all(x == x for x in vector)


def _frontier_python(items: Sequence[T], vectors: list) -> list[T]:
    frontier: list[T] = []
    seen: set = set()
    for i, item in enumerate(items):
        vi = vectors[i]
        if _is_repeat(vi, seen):
            continue
        dominated = False
        for j, vj in enumerate(vectors):
            if i != j and dominates(vj, vi):
                dominated = True
                break
        if not dominated:
            frontier.append(item)
            seen.add(vi)
    return frontier


def _dominated_mask(array: np.ndarray) -> np.ndarray:
    """Boolean mask: row i is dominated by some other row."""
    n = len(array)
    columns = np.ascontiguousarray(array.T)
    dominated = np.zeros(n, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        # le[i, j]: candidate j is no worse than block row i everywhere;
        # lt[i, j]: candidate j is strictly better somewhere.  Both are
        # accumulated one objective column at a time.
        le = np.ones((stop - start, n), dtype=bool)
        lt = np.zeros((stop - start, n), dtype=bool)
        for column in columns:
            own = column[start:stop, None]
            le &= column <= own
            lt |= column < own
        dominated[start:stop] = (le & lt).any(axis=1)
    return dominated


def _frontier_numpy(
    items: Sequence[T], vectors: list, array: np.ndarray
) -> list[T]:
    dominated = _dominated_mask(array)
    frontier: list[T] = []
    seen: set = set()
    for i, item in enumerate(items):
        if dominated[i]:
            continue
        vi = vectors[i]
        if _is_repeat(vi, seen):
            continue
        frontier.append(item)
        seen.add(vi)
    return frontier


def pareto_frontier(
    items: Sequence[T],
    objectives: Callable[[T], Sequence[float]],
    engine: str = "auto",
) -> list[T]:
    """Non-dominated subset of ``items`` under ``objectives``.

    Duplicates (identical objective vectors) are kept once, preserving
    the first occurrence.  ``engine`` selects the implementation (see
    module docstring); results are identical across engines.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown pareto engine {engine!r} (choose from {_ENGINES})"
        )
    vectors = [tuple(objectives(item)) for item in items]
    if engine == "python" or not items:
        return _frontier_python(items, vectors)
    try:
        array = np.asarray(vectors, dtype=float)
    except (TypeError, ValueError):
        if engine == "auto":
            return _frontier_python(items, vectors)
        raise
    return _frontier_numpy(items, vectors, array)


def pareto_frontier_mask(
    matrix: np.ndarray, engine: str = "auto"
) -> np.ndarray:
    """Frontier membership mask for pre-stacked objective rows.

    The array-native entry point for batched evaluation: ``matrix`` is
    one objective vector per row (e.g.
    :meth:`~repro.core.batch.BatchEvaluation.objective_matrix`) and the
    returned boolean mask marks the non-dominated rows, with duplicate
    vectors kept once (first occurrence) — the same tie/NaN/duplicate
    semantics as :func:`pareto_frontier`, pinned by the differential
    tests.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown pareto engine {engine!r} (choose from {_ENGINES})"
        )
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2:
        raise ConfigurationError(
            f"objective matrix must be 2-D, got shape {array.shape}"
        )
    n = len(array)
    if n == 0:
        return np.zeros(0, dtype=bool)
    if engine == "python":
        vectors = [tuple(row) for row in array.tolist()]
        kept = _frontier_python(list(range(n)), vectors)
        mask = np.zeros(n, dtype=bool)
        mask[kept] = True
        return mask
    surviving = ~_dominated_mask(array)
    # Deduplicate by value: among equal rows, keep the first only.
    seen: set = set()
    candidates = np.flatnonzero(surviving)
    for index, row in zip(candidates, array[candidates].tolist()):
        key = tuple(row)
        if _is_repeat(key, seen):
            surviving[index] = False
        else:
            seen.add(key)
    return surviving
