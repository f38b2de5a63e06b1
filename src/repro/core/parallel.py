"""What every sweep executor shares: outcomes, cancellation, the warning.

The executors themselves live in :mod:`repro.core.executor`
(:class:`~repro.core.executor.SerialExecutor`,
:class:`~repro.core.executor.LocalPoolExecutor`,
:class:`~repro.core.executor.WorkQueueExecutor`).  This module holds
the three names they, the sweep, the result store and the queue worker
have in common, and stays import-light so the worker's cold path can
load it:

* :class:`PointOutcome` — one evaluated point, ok or captured failure;
* :func:`check_cancelled` — the one chunk-boundary cancellation check;
* :class:`ParallelFallbackWarning` — a process pool failed and its
  unmerged chunks were finished serially.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CancelledError


def check_cancelled(cancel) -> None:
    """Raise :class:`~repro.errors.CancelledError` if ``cancel`` fired.

    ``cancel`` is duck-typed — any object with a boolean ``cancelled``
    attribute (and optionally a ``reason``), typically a
    :class:`~repro.serve.resilience.CancelToken`.  Core never imports
    the serve layer; this helper is the one cancellation check shared
    by the sweep and executor chunk boundaries.
    """
    if cancel is None:
        return
    if cancel.cancelled:
        reason = getattr(cancel, "reason", None) or "cancelled"
        raise CancelledError(f"cancelled ({reason})")


class ParallelFallbackWarning(UserWarning):
    """The process pool failed and its unmerged chunks ran serially.

    The message carries the root cause (broken pool, spawn failure, or
    a worker crash outside ``catch``) and flags that side-effectful
    evaluation functions may have executed twice for items the pool
    had started but not merged.
    """


@dataclass(frozen=True)
class PointOutcome:
    """Result of one evaluated point.

    Attributes:
        ok: Whether the evaluation returned normally.
        value: The return value (None on failure).
        error: ``repr`` of the captured exception (None on success).
    """

    ok: bool
    value: object = None
    error: str | None = None
