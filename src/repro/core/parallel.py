"""Process-parallel evaluation of independent design points.

Design-space sweeps are embarrassingly parallel: every point is a pure
function of its parameters.  :func:`parallel_map` runs such workloads
across a process pool with

* **deterministic chunking** — points are split into contiguous chunks
  in input order, so the work distribution does not depend on worker
  scheduling;
* **ordered merge** — results come back in input order regardless of
  which worker finished first, so parallel runs are indistinguishable
  from serial ones;
* **graceful fallback** — if the platform cannot spawn workers (single
  CPU, sandboxed environment, non-picklable callables) the map degrades
  to the serial path, which is always correct; with a ledger, a map
  that asked for a pool records why in one ``serial`` event.  A pool
  that fails *after* starting is re-run serially too, but loudly: the
  root cause is surfaced as a :class:`ParallelFallbackWarning` and a
  ``fallback`` ledger event, because side-effectful ``fn``s may have
  executed twice on the items the pool already finished;
* **bounded retry** — *transient* pool failures (spawn/resource errors,
  broken executors; :data:`TRANSIENT_POOL_ERRORS`) are retried with
  exponential backoff (``ParallelConfig.max_retries`` /
  ``backoff_s``, one ``retry`` ledger event each) before the serial
  fallback; workload exceptions are deterministic and never retried;
* **per-chunk timeouts** — with ``ParallelConfig.timeout_s`` set, a
  chunk that misses its result deadline is quarantined as failed
  :class:`PointOutcome` entries (a ``timeout`` ledger event) and the
  pool is abandoned without waiting, so a hung point cannot hang the
  sweep.

``ledger=`` streams chunk timings, serial reasons, retries, timeouts
and fallbacks to a :class:`repro.obs.ledger.RunLedger`; every chunk's
``s`` is the wall time its worker spent evaluating it, on the pool and
serial paths alike.  ``progress=`` feeds a
:class:`repro.obs.progress.ProgressReporter` per merged chunk; and
``on_chunk=`` hands each merged chunk's outcomes to the caller (how
:meth:`Sweep.run <repro.core.sweep.Sweep.run>` journals as it goes).
All default to None and cost nothing when off.

Per-point errors of declared types are captured as
:class:`PointOutcome` failures instead of poisoning the whole pool, so
a sweep over a partially-infeasible grid behaves like its serial
``skip_errors`` counterpart.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass

from repro.errors import CancelledError, ConfigurationError

#: Pool failures worth retrying: executor infrastructure breakage
#: (broken pool, killed worker) and OS-level spawn/resource errors.
#: Anything else that escapes a worker is the workload's own exception
#: and is deterministic — retrying would just re-raise it.
TRANSIENT_POOL_ERRORS = (OSError, BrokenExecutor)

#: ``concurrent.futures.ProcessPoolExecutor``, imported by the first
#: pool map: it loads ``multiprocessing``, which serial sweeps and
#: work-queue workers never use.
ProcessPoolExecutor = None


def check_cancelled(cancel) -> None:
    """Raise :class:`~repro.errors.CancelledError` if ``cancel`` fired.

    ``cancel`` is duck-typed — any object with a boolean ``cancelled``
    attribute (and optionally a ``reason``), typically a
    :class:`~repro.serve.resilience.CancelToken`.  Core never imports
    the serve layer; this helper is the one cancellation check shared
    by the sweep/parallel/executor chunk boundaries.
    """
    if cancel is None:
        return
    if cancel.cancelled:
        reason = getattr(cancel, "reason", None) or "cancelled"
        raise CancelledError(f"cancelled ({reason})")


class ParallelFallbackWarning(UserWarning):
    """The process pool failed and the workload was re-run serially.

    The message carries the root cause (broken pool, spawn failure, or
    a worker crash outside ``catch``) — previously discarded — and
    flags that side-effectful evaluation functions may have executed
    twice for items the pool already processed.
    """


@dataclass(frozen=True)
class ParallelConfig:
    """How to distribute a sweep across processes.

    Attributes:
        workers: Worker processes (None = ``os.cpu_count()``).  A value
            of 0 or 1 — or a single-CPU machine — selects the in-process
            serial path.
        chunk_size: Points per task sent to a worker (None = one
            contiguous chunk per worker).  Chunks are always contiguous
            slices of the input, so chunking never reorders evaluation
            within a chunk.
        timeout_s: Per-chunk result deadline.  A chunk that has not
            produced its result by the time the ordered merge reaches it
            is *quarantined*: every point in it becomes a failed
            :class:`PointOutcome` (``error`` carries the timeout) and
            the pool is abandoned without waiting for the hung worker.
            None (default) waits forever.
        max_retries: Pool construction/run attempts (beyond the first)
            for *transient* failures (:data:`TRANSIENT_POOL_ERRORS`)
            before the loud serial fallback.
        backoff_s: Initial retry backoff; doubles per retry.
    """

    workers: int | None = None
    chunk_size: int | None = None
    timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")

    def resolved_workers(self, n_items: int) -> int:
        workers = self.workers
        if workers is None:
            workers = os.cpu_count() or 1
        return max(1, min(workers, n_items))


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


def _run_chunk(fn, chunk, catch):
    """Worker entry point: evaluate one contiguous chunk of items.

    Top-level so it pickles under the spawn start method.  ``catch`` is
    a tuple of exception types converted to failed outcomes; anything
    else propagates and fails the whole map (which then falls back to
    the serial path in the parent, re-raising deterministically).
    Returns ``(elapsed, outcomes)``: the chunk's wall time in the
    process that evaluated it, which is what its ``chunk`` ledger event
    reports.
    """
    start = time.perf_counter()
    outcomes = []
    for item in chunk:
        try:
            outcomes.append(PointOutcome(ok=True, value=fn(item)))
        except catch as error:
            outcomes.append(PointOutcome(ok=False, error=repr(error)))
    return time.perf_counter() - start, outcomes


def _chunks(items: list, chunk_size: int) -> list:
    return [
        items[start : start + chunk_size]
        for start in range(0, len(items), chunk_size)
    ]


def _picklable(*objects) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def parallel_map(
    fn,
    items,
    config: ParallelConfig | None = None,
    catch: tuple = (),
    ledger=None,
    progress=None,
    cancel=None,
    on_chunk=None,
) -> list:
    """Evaluate ``fn`` over ``items``, optionally across processes.

    Args:
        fn: Single-argument callable; must be picklable (a module-level
            function or a dataclass instance) to actually run in
            parallel — otherwise the serial path is used.
        items: Finite iterable of inputs (materialized up front).
        config: Distribution settings; None means serial.
        catch: Exception types captured per point as failed
            :class:`PointOutcome` entries instead of raised.
        ledger: Optional :class:`~repro.obs.ledger.RunLedger` receiving
            ``chunk``/``serial``/``retry``/``timeout``/``fallback``
            events.
        progress: Optional
            :class:`~repro.obs.progress.ProgressReporter` advanced per
            merged chunk.
        cancel: Cooperative cancellation token (boolean ``cancelled``
            attribute).  Checked at chunk boundaries; a fired token
            raises :class:`~repro.errors.CancelledError` — never
            retried, never degraded to the serial fallback.
        on_chunk: Optional ``on_chunk(positions, outcomes)`` called
            once per merged chunk, in input order, with the chunk's
            input positions and outcomes (a timed-out chunk with its
            failure outcomes).  A chunk re-run by a retry or the serial
            fallback is never reported twice.  An exception it raises
            propagates unchanged: never retried, never a fallback.

    Returns:
        One :class:`PointOutcome` per item, in input order.
    """
    items = list(items)
    catch = tuple(catch) or (_NeverRaised,)
    if not items:
        return []
    if config is None:
        # One chunk per item only when there is a cancel token to check
        # between them.
        chunks = [items] if cancel is None else [[item] for item in items]
        return _serial_chunked(
            fn, chunks, catch, ledger, progress, cancel=cancel,
            on_chunk=on_chunk,
        )
    workers = config.resolved_workers(len(items))
    chunk_size = config.chunk_size
    if chunk_size is None:
        from repro.units import ceil_div

        chunk_size = ceil_div(len(items), workers)
    chunks = _chunks(items, chunk_size)
    serial_reason = None
    if workers <= 1:
        serial_reason = "single_worker"
    elif not _picklable(fn, items[0]):
        serial_reason = "non_picklable"
    if serial_reason is not None:
        # An explicitly serial config (workers 0 or 1, as
        # SerialExecutor passes) asked for no pool, so there is no
        # degradation to explain.
        if ledger is not None and config.workers not in (0, 1):
            ledger.event("serial", reason=serial_reason, items=len(items))
        return _serial_chunked(
            fn, chunks, catch, ledger, progress, cancel=cancel,
            on_chunk=on_chunk,
        )
    attempt = 0
    # One accounting notebook for the whole map call: a retried pool
    # attempt (or the serial fallback) re-processes chunks the failed
    # attempt already reported, and without this dedup the ledger and
    # progress line double-count them — the pool and serial-fallback
    # paths then disagree on the `timeout` events of a chunk that
    # timed out before a transient retry.
    noted: set = set()
    # on_chunk runs inside the pool attempt, but its failure (a sweep's
    # journal or store write) is the caller's: never retried or re-run.
    callback_errors: list = []

    def report(positions, outcomes):
        try:
            on_chunk(positions, outcomes)
        except BaseException as error:
            callback_errors.append(error)
            raise

    while True:
        try:
            return _pool_map(
                fn,
                chunks,
                catch,
                workers,
                config.timeout_s,
                ledger,
                progress,
                noted,
                cancel=cancel,
                on_chunk=None if on_chunk is None else report,
            )
        except CancelledError:
            # Cancellation is a request to stop, not a pool failure:
            # it must reach the caller before the transient-retry and
            # serial-fallback handlers get a chance to re-run the
            # remaining chunks.
            raise
        except Exception as error:
            if callback_errors:
                raise
            # Spawn/resource exhaustion and broken pools are often
            # transient (fork storms, momentary fd pressure): back off
            # and retry a bounded number of times before giving up.  A
            # worker-side crash outside `catch` is the workload's own
            # deterministic exception: no retry, redo serially so it
            # surfaces with a clean traceback.
            if (
                isinstance(error, TRANSIENT_POOL_ERRORS)
                and attempt < config.max_retries
            ):
                attempt += 1
                if ledger is not None:
                    ledger.event(
                        "retry", attempt=attempt, error=repr(error)
                    )
                time.sleep(config.backoff_s * (2 ** (attempt - 1)))
                continue
            # The loud serial re-run.
            if ledger is not None:
                ledger.event("fallback", error=repr(error), items=len(items))
            warnings.warn(
                f"process pool failed ({error!r}); re-running all "
                f"{len(items)} items serially — side-effectful functions "
                "may execute twice",
                ParallelFallbackWarning,
                stacklevel=2,
            )
            return _serial_chunked(
                fn, chunks, catch, ledger, progress, noted, cancel=cancel,
                on_chunk=on_chunk,
            )


def _note_chunk(
    index,
    start,
    chunk,
    outcomes,
    elapsed,
    ledger,
    progress,
    noted=None,
    status="ok",
    timeout_s=None,
    on_chunk=None,
):
    """Report one merged chunk — exactly once per map call.

    All chunk-level accounting funnels through here: the caller's
    ``on_chunk`` (positions ``start`` onwards), the regular ``chunk``
    event/progress note *and* the quarantine path (``status="timeout"``:
    the ``timeout``/``span_end`` ledger events, the failed-progress
    note).  ``noted`` is the map-level set of already-reported chunk
    indices; a chunk re-processed by a retry attempt or the serial
    fallback is merged again but never reported twice.
    """
    if noted is not None:
        if index in noted:
            return
        noted.add(index)
    if on_chunk is not None:
        on_chunk(list(range(start, start + len(chunk))), outcomes)
    if status == "timeout":
        if ledger is not None:
            ledger.event("timeout", index=index, size=len(chunk))
            # A completed chunk's duration reaches the report via its
            # `chunk` event; a quarantined chunk would otherwise vanish
            # from the span waterfall.  No span_start exists — the
            # report anchors the bar at run start, which is when the
            # pool submitted it — and the duration is the full
            # deadline, the only lower bound we have for a worker that
            # never answered.
            ledger.event(
                "span_end",
                name=f"chunk {index} (timeout)",
                status="timeout",
                s=round(timeout_s, 6),
            )
        if progress is not None:
            progress.update(failed=len(chunk))
        return
    if ledger is None and progress is None:
        return
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    if ledger is not None:
        ledger.event(
            "chunk",
            index=index,
            size=len(chunk),
            s=round(elapsed, 6),
            failed=failed,
        )
    if progress is not None:
        progress.update(done=len(outcomes) - failed, failed=failed)


def _serial_chunked(
    fn, chunks, catch, ledger, progress, noted=None, cancel=None,
    on_chunk=None,
) -> list:
    """Serial evaluation with the same per-chunk reporting as the pool."""
    merged: list = []
    for index, chunk in enumerate(chunks):
        check_cancelled(cancel)
        elapsed, outcomes = _run_chunk(fn, chunk, catch)
        _note_chunk(
            index, len(merged), chunk, outcomes, elapsed, ledger, progress,
            noted, on_chunk=on_chunk,
        )
        merged.extend(outcomes)
    return merged


def _pool_map(
    fn,
    chunks,
    catch,
    workers,
    timeout_s,
    ledger,
    progress,
    noted=None,
    cancel=None,
    on_chunk=None,
) -> list:
    """One process-pool attempt; raises on pool/workload failures.

    Timed-out chunks do *not* raise: every point of an overdue chunk is
    quarantined as a failed :class:`PointOutcome` and the pool is
    abandoned without waiting (``wait=False``), so one hung worker can
    never hang the parent or poison the other chunks' results.
    """
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    abandoned = False
    try:
        futures = [
            pool.submit(_run_chunk, fn, chunk, catch) for chunk in chunks
        ]
        merged: list = []
        for index, (chunk, future) in enumerate(zip(chunks, futures)):
            # submission order == input order
            if cancel is not None and cancel.cancelled:
                # Abandon the pool exactly like a timed-out chunk: no
                # waiting on stragglers, pending futures cancelled.
                abandoned = True
                check_cancelled(cancel)
            try:
                elapsed, outcomes = future.result(timeout=timeout_s)
            except FuturesTimeout:
                abandoned = True
                message = (
                    f"TimeoutError: chunk of {len(chunk)} item(s) "
                    f"exceeded the {timeout_s}s deadline"
                )
                outcomes = [
                    PointOutcome(ok=False, error=message) for _ in chunk
                ]
                _note_chunk(
                    index,
                    len(merged),
                    chunk,
                    outcomes,
                    0.0,
                    ledger,
                    progress,
                    noted,
                    status="timeout",
                    timeout_s=timeout_s,
                    on_chunk=on_chunk,
                )
                merged.extend(outcomes)
                continue
            _note_chunk(
                index, len(merged), chunk, outcomes, elapsed, ledger,
                progress, noted, on_chunk=on_chunk,
            )
            merged.extend(outcomes)
        return merged
    finally:
        shutdown = getattr(pool, "shutdown", None)
        if shutdown is not None:  # stand-in executors may lack it
            shutdown(wait=not abandoned, cancel_futures=abandoned)


class _NeverRaised(Exception):
    """Placeholder exception type: an empty ``catch`` catches nothing."""
