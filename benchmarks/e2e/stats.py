"""Order statistics shared by the benchmark runner and ``compare.py``.

Quartiles are Python's ``statistics.quantiles(values, n=4)`` (the
exclusive method), so a spread printed here matches one computed by
hand from the same values.  Percentiles are nearest-rank, so every
reported percentile is a sample that was actually measured.
"""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile that leaves at least ten samples beyond
    it, or None when there are too few samples for one."""
    best = None
    for q in range(50, 100):
        if n - math.ceil(q / 100.0 * n) >= 10:
            best = q
    return best


def summary(values) -> dict:
    """n, min, quartiles, max and the ten-beyond tail of ``values``."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    document = {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(values),
    }
    tail = tail_percentile(len(values))
    if tail is not None:
        document[f"p{tail}"] = percentile(values, tail)
    return document
