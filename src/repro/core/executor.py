"""Sweep executors: one interface, in-process loop to multi-node queue.

:meth:`Sweep.run <repro.core.sweep.Sweep.run>` evaluates every point
through one :class:`Executor` and does not care where the points run:

* :class:`SerialExecutor` — the in-process reference path, one point
  per chunk;
* :class:`LocalPoolExecutor` — one machine's process pool
  (deterministic contiguous chunks, ordered merge, and a loud serial
  fallback for the chunks a failed pool had not merged);
* :class:`WorkQueueExecutor` — multiple worker *processes* (forked
  locally, or started on other machines) coordinated through a shared
  work-queue directory.  See docs/DISTRIBUTED.md for the protocol
  walkthrough.

Work-queue protocol (all filesystem, no sockets, NFS-friendly)::

    queue/
      manifest.json         run id, chunk count, lease timeout
      task.pkl              pickled (fn, catch) every worker loads
      pending/chunk-00007.json   unclaimed chunks (tmp+rename, not fsync'd)
      leases/chunk-00007.json    claimed chunks (claim = atomic rename)
      results/chunk-00007.json   completed chunks (fsync'd tmp+replace)
      store/segment-<worker>.jsonl  per-worker durable result segments
      workers/<worker>.json      throttled heartbeats (not fsync'd)
      done.json                  coordinator's shutdown sentinel

Only what must outlive a crash is fsync'd: the manifest, ``task.pkl``,
results, segment appends and ``done.json``.  Chunk documents are wiped
by :meth:`WorkQueue.reset` at every map start, and a heartbeat only
matters while its writer lives; on a ``discard``-mounted ext4 freeing
an fsync'd file's blocks costs tens of milliseconds, which a per-chunk
fsync + unlink would pay on every chunk.

* **Claim-by-rename** — a worker claims a chunk by ``os.rename``-ing it
  from ``pending/`` into ``leases/``; rename is atomic, so exactly one
  claimant wins and the losers see ``FileNotFoundError`` and move on.
* **Lease expiry** — a worker renews its lease's mtime after every
  evaluated point; a lease whose mtime is older than the manifest's
  ``lease_timeout_s`` belongs to a dead worker.
* **Work stealing** — the coordinator requeues expired leases (again
  by rename) while its map runs, and the next idle worker claims them,
  so a ``SIGKILL``-ed worker's chunks are reassigned instead of lost.
  Only the coordinator requeues, so ``stats["requeued"]`` and the
  ``lease_expired``/``queue_end`` ledger events count every steal.
* **Durable results** — workers append every *fresh* evaluation to
  their own fsync'd :class:`~repro.core.store.ResultStore` segment
  before the chunk completes; a stolen chunk consults all segments
  first, so points a dead worker already finished are served from the
  segments, never evaluated twice.  The segments are a safety record
  for the queue only: the caller's result store is
  :meth:`Sweep.run <repro.core.sweep.Sweep.run>`'s ``store=``, which
  serves stored points before ``map`` and stores each chunk as it
  lands.

Every executor returns one :class:`~repro.core.parallel.PointOutcome`
per item, in input order — bit-identical to the serial reference path
(pinned by ``tests/test_core_executor.py``).
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import select
import time
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, SimulationError
from repro.core.parallel import (
    ParallelFallbackWarning,
    PointOutcome,
    check_cancelled,
)
from repro.core.store import decode_outcome, encode_outcome

#: Subdirectories of a work-queue directory.
PENDING, LEASES, RESULTS, SEGMENTS, WORKERS = (
    "pending",
    "leases",
    "results",
    "store",
    "workers",
)
MANIFEST, TASK_FILE, DONE_FILE = "manifest.json", "task.pkl", "done.json"

#: Seconds ``WorkQueueExecutor`` lets a SIGTERM'd worker drain before
#: it SIGKILLs (and reaps) it.
CLOSE_GRACE_S = 5.0

#: ``concurrent.futures.ProcessPoolExecutor``, imported by the first
#: pool map: it loads ``multiprocessing``, which serial sweeps and
#: work-queue workers never use.
ProcessPoolExecutor = None


class ExecutorError(SimulationError):
    """Distributed execution failed (lost workers, deadline, bad queue)."""


class Executor:
    """Interface every sweep executor implements.

    ``map`` evaluates ``fn`` over ``items`` and returns one
    :class:`PointOutcome` per item in input order.  ``catch`` is a
    tuple of exception types captured per point as failed outcomes;
    anything else propagates.  ``keys`` is an
    optional parallel list of content fingerprints (one per item); the
    work queue ships them with each chunk so a stolen chunk skips
    points its dead worker already finished, and the in-process
    executors ignore them.  ``cancel`` is an optional cooperative
    cancellation token (boolean ``cancelled`` attribute) checked at
    chunk boundaries; a fired token raises
    :class:`~repro.errors.CancelledError`.  ``on_chunk(positions,
    outcomes)``, when given, is called once per merged chunk with the
    chunk's input positions and outcomes, so a caller can persist
    results as they land rather than when ``map`` returns; an error it
    raises propagates unchanged.  ``ledger`` receives one ``chunk``
    event per merged chunk (``index``, ``size``, the worker's wall
    ``s``, ``failed``) and ``progress`` one update.
    """

    name = "executor"

    def map(
        self, fn, items, *, catch=(), keys=None, ledger=None,
        progress=None, cancel=None, on_chunk=None,
    ) -> list:
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-able self-description for ``run_start`` ledger events."""
        return {"executor": self.name}

    def close(self) -> None:
        """Release any resources (spawned workers)."""


def _run_chunk(fn, chunk, catch):
    """Evaluate one contiguous chunk of items.

    Top-level so the process pool can pickle it.  Returns ``(elapsed,
    outcomes)``: the chunk's wall time in the process that evaluated
    it, which is what its ``chunk`` ledger event reports.
    """
    start = time.perf_counter()
    outcomes = []
    for item in chunk:
        try:
            outcomes.append(PointOutcome(ok=True, value=fn(item)))
        except catch as error:
            outcomes.append(PointOutcome(ok=False, error=repr(error)))
    return time.perf_counter() - start, outcomes


def _merge_chunk(
    index, outcomes, elapsed, merged, ledger, progress, on_chunk
) -> None:
    """Append chunk ``index``'s outcomes to ``merged`` and report it.

    Chunks merge in input order and each exactly once, so the chunk's
    input positions start at ``len(merged)``.
    """
    start = len(merged)
    merged.extend(outcomes)
    if on_chunk is not None:
        on_chunk(list(range(start, len(merged))), outcomes)
    if ledger is None and progress is None:
        return
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    if ledger is not None:
        ledger.event(
            "chunk",
            index=index,
            size=len(outcomes),
            s=round(elapsed, 6),
            failed=failed,
        )
    if progress is not None:
        progress.update(done=len(outcomes) - failed, failed=failed)


def _map_serially(
    fn, chunks, first, merged, catch, ledger, progress, cancel, on_chunk
) -> list:
    """Evaluate ``chunks[first:]`` in this process into ``merged``."""
    for index in range(first, len(chunks)):
        check_cancelled(cancel)
        elapsed, outcomes = _run_chunk(fn, chunks[index], catch)
        _merge_chunk(
            index, outcomes, elapsed, merged, ledger, progress, on_chunk
        )
    return merged


def _map_on_pool(
    fn, chunks, workers, merged, catch, ledger, progress, cancel, on_chunk
) -> tuple:
    """Merge the chunks a process pool evaluates, in input order.

    Returns ``(first, error)``: the index of the first chunk not merged
    and the pool failure that stopped the merge there, or
    ``(len(chunks), None)``.  Cancellation and ``on_chunk`` errors
    raise instead: they are the caller's, not the pool's.
    """
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    pool = None
    cancelled = False
    try:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
            futures = [
                pool.submit(_run_chunk, fn, chunk, catch) for chunk in chunks
            ]
        except Exception as error:
            return 0, error
        for index, future in enumerate(futures):
            if cancel is not None and cancel.cancelled:
                cancelled = True
                check_cancelled(cancel)
            try:
                elapsed, outcomes = future.result()
            except Exception as error:
                return index, error
            _merge_chunk(
                index, outcomes, elapsed, merged, ledger, progress, on_chunk
            )
        return len(chunks), None
    finally:
        if pool is not None:
            # Unmerged chunks are never waited for; a cancelled map
            # does not wait for the running ones either.
            pool.shutdown(wait=not cancelled, cancel_futures=True)


def _picklable(*objects) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


@dataclass
class SerialExecutor(Executor):
    """The in-process reference path behind the executor interface.

    One-point chunks report (and check cancellation) per point, so a
    crash or cancel mid-map loses nothing already evaluated.
    """

    name = "serial"

    def map(
        self, fn, items, *, catch=(), keys=None, ledger=None,
        progress=None, cancel=None, on_chunk=None,
    ) -> list:
        return _map_serially(
            fn, [[item] for item in items], 0, [], tuple(catch), ledger,
            progress, cancel, on_chunk,
        )


@dataclass
class LocalPoolExecutor(Executor):
    """One machine's process pool behind the executor interface.

    Items are split into contiguous chunks of ``chunk_size`` (None =
    one chunk per worker), evaluated on ``workers`` processes (None =
    ``os.cpu_count()``) and merged back in input order, so the result
    is identical to a serial run.  A map that cannot use a pool — one
    worker, or an ``fn`` or item that does not pickle — runs the same
    chunks in-process and, unless ``workers`` asked for 0 or 1, says
    why in one ``serial`` ledger event.

    A pool that fails after starting (broken pool, spawn failure, a
    worker exception outside ``catch``) falls back loudly: a
    :class:`~repro.core.parallel.ParallelFallbackWarning` and a
    ``fallback`` ledger event carry the root cause, and the chunks the
    pool had not merged run in-process, so a workload exception
    re-raises there with a clean traceback and every chunk is reported
    once.  Cancellation and ``on_chunk`` errors propagate unchanged.
    """

    workers: int | None = None
    chunk_size: int | None = None

    name = "local_pool"

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")

    def map(
        self, fn, items, *, catch=(), keys=None, ledger=None,
        progress=None, cancel=None, on_chunk=None,
    ) -> list:
        items = list(items)
        if not items:
            return []
        catch = tuple(catch)
        workers = self.workers
        if workers is None:
            workers = os.cpu_count() or 1
        workers = max(1, min(workers, len(items)))
        chunk_size = self.chunk_size
        if chunk_size is None:
            from repro.units import ceil_div

            chunk_size = ceil_div(len(items), workers)
        chunks = [
            items[start : start + chunk_size]
            for start in range(0, len(items), chunk_size)
        ]
        merged: list = []
        serial_reason = None
        if workers == 1:
            serial_reason = "single_worker"
        elif not _picklable(fn, items[0]):
            serial_reason = "non_picklable"
        if serial_reason is not None:
            # workers 0 or 1 asked for no pool: nothing degraded.
            if ledger is not None and self.workers not in (0, 1):
                ledger.event("serial", reason=serial_reason, items=len(items))
            return _map_serially(
                fn, chunks, 0, merged, catch, ledger, progress, cancel,
                on_chunk,
            )
        first, error = _map_on_pool(
            fn, chunks, workers, merged, catch, ledger, progress, cancel,
            on_chunk,
        )
        if error is not None:
            rerun = len(items) - len(merged)
            if ledger is not None:
                ledger.event("fallback", error=repr(error), items=rerun)
            warnings.warn(
                f"process pool failed ({error!r}); re-running {rerun} "
                "unmerged item(s) serially — side-effectful functions "
                "may execute twice",
                ParallelFallbackWarning,
                stacklevel=2,
            )
            _map_serially(
                fn, chunks, first, merged, catch, ledger, progress, cancel,
                on_chunk,
            )
        return merged

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "workers": self.workers,
            "chunk_size": self.chunk_size,
        }


# -- work-queue plumbing -----------------------------------------------------


def atomic_write_json(path: Path, document: dict, fsync: bool = True) -> None:
    """Write a JSON file so readers never see a partial document.

    ``fsync=False`` keeps the atomicity (tmp + rename) but not the
    durability, for files no crash recovery reads.
    """
    tmp_path = path.with_name(path.name + f".tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def read_json(path: Path):
    """A JSON document, or None if missing/torn (concurrent writer)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def chunk_file_name(index: int) -> str:
    return f"chunk-{index:05d}.json"


class WorkQueue:
    """The shared work-queue directory: layout, claims, leases, results.

    Used from both sides — the coordinator
    (:class:`WorkQueueExecutor`) publishes chunks and collects results;
    workers (:mod:`repro.core.worker`) claim, evaluate and publish.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        # Lease-aging observations: name -> (mtime, baseline_age,
        # monotonic anchor).  See expired_leases.
        self._lease_seen: dict = {}

    # -- layout --------------------------------------------------------------

    def directory(self, name: str) -> Path:
        return self.root / name

    def create_layout(self) -> None:
        for name in (PENDING, LEASES, RESULTS, SEGMENTS, WORKERS):
            self.directory(name).mkdir(parents=True, exist_ok=True)

    def reset(self) -> None:
        """Clear any previous run's state (a queue runs one map at a time)."""
        import shutil

        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.create_layout()

    def manifest(self) -> dict | None:
        return read_json(self.root / MANIFEST)

    def done(self) -> bool:
        return (self.root / DONE_FILE).exists()

    def mark_done(self, queue_id: str) -> None:
        atomic_write_json(self.root / DONE_FILE, {"queue": queue_id})

    # -- task ----------------------------------------------------------------

    def write_task(self, fn, catch: tuple) -> None:
        payload = pickle.dumps({"fn": fn, "catch": tuple(catch)})
        tmp = self.root / (TASK_FILE + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.root / TASK_FILE)

    def load_task(self) -> tuple:
        with open(self.root / TASK_FILE, "rb") as handle:
            payload = pickle.load(handle)
        return payload["fn"], tuple(payload["catch"])

    # -- chunks --------------------------------------------------------------

    def publish_chunk(
        self,
        index: int,
        indices: list,
        items: list,
        keys: list | None,
        trace: dict | None = None,
    ) -> None:
        document = {
            "chunk": index,
            "indices": list(indices),
            "items": base64.b64encode(pickle.dumps(list(items))).decode(
                "ascii"
            ),
            "keys": list(keys) if keys is not None else None,
        }
        if trace is not None:
            # The chunk's own trace context: the worker binds it
            # verbatim, so its ledger spans parent into the
            # coordinator's trace across the process boundary.
            document["trace"] = dict(trace)
        # Not fsync'd: reset() wipes chunk documents at every map start,
        # so none has to survive a crash, and an fsync'd file's blocks
        # cost an expensive free when its lease is released.
        atomic_write_json(
            self.directory(PENDING) / chunk_file_name(index),
            document,
            fsync=False,
        )

    def claim_chunk(self, name: str, worker_id: str) -> dict | None:
        """Atomically move one pending chunk into ``leases/``.

        Returns the chunk document, or None if another worker won the
        rename race (or the file vanished).
        """
        source = self.directory(PENDING) / name
        target = self.directory(LEASES) / name
        try:
            os.rename(source, target)
        except OSError:
            return None
        try:
            # Start the lease clock at *claim* time: the rename keeps
            # the chunk file's publish-time mtime, which for a chunk
            # claimed late in a long run would look expired at once.
            os.utime(target)
        except OSError:
            pass  # already stolen; its renewals restart the clock
        document = read_json(target)
        if document is None:
            return None
        document["_lease_path"] = str(target)
        return document

    def claim_next(self, worker_id: str):
        """Claim the pending chunk with the lowest index (so input order
        is roughly preserved), or return None with nothing pending.

        Expired leases come back to ``pending/`` only through the
        coordinator's :meth:`requeue_expired`.
        """
        for name in sorted(os.listdir(self.directory(PENDING))):
            document = self.claim_chunk(name, worker_id)
            if document is not None:
                return document
        return None

    def renew_lease(self, lease_path: str) -> None:
        try:
            os.utime(lease_path)
        except OSError:
            pass  # stolen from under us; the result write still lands

    def expired_leases(self, lease_timeout_s: float) -> list:
        """Lease file names whose worker has stopped renewing.

        Lease mtimes are written by *other* nodes whose wall clocks may
        be skewed against ours (NFS queues), so ``now - mtime`` alone
        misjudges liveness in both directions: a renewing worker on a
        slow clock looks expired, and a dead worker's future-dated
        mtime from a fast clock never expires.  Ages are therefore
        anchored to this observer's monotonic clock: the first sighting
        of a lease takes its wall-clock age — clamped to >= 0 — as the
        baseline, an mtime *change* re-anchors the baseline at zero
        (the renewal itself proves the worker alive, whatever the
        clocks say), and between renewals the age grows by monotonic
        time since the sighting.
        """
        mono_now = time.monotonic()
        now = time.time()
        expired = []
        leases = self.directory(LEASES)
        names = set(os.listdir(leases))
        for name in sorted(names):
            try:
                mtime = (leases / name).stat().st_mtime
            except OSError:
                self._lease_seen.pop(name, None)
                continue  # completed or stolen mid-scan
            seen = self._lease_seen.get(name)
            if seen is None:
                age = max(0.0, now - mtime)
                self._lease_seen[name] = (mtime, age, mono_now)
            elif seen[0] != mtime:
                age = 0.0
                self._lease_seen[name] = (mtime, age, mono_now)
            else:
                _, baseline, anchor = seen
                age = baseline + (mono_now - anchor)
            if age > lease_timeout_s:
                expired.append(name)
        for name in list(self._lease_seen):
            if name not in names:
                del self._lease_seen[name]
        return expired

    def requeue_expired(self, lease_timeout_s: float) -> int:
        """Move expired leases back to ``pending/``; returns how many."""
        requeued = 0
        for name in self.expired_leases(lease_timeout_s):
            # A chunk whose result already landed is finished even if
            # its lease lingers (worker died between publish and
            # release): drop the lease instead of re-running it.
            if (self.directory(RESULTS) / name).exists():
                try:
                    os.unlink(self.directory(LEASES) / name)
                except OSError:
                    pass
                continue
            try:
                os.rename(
                    self.directory(LEASES) / name,
                    self.directory(PENDING) / name,
                )
            except OSError:
                continue  # another stealer won
            requeued += 1
        return requeued

    def release_lease(self, lease_path: str) -> None:
        try:
            os.unlink(lease_path)
        except OSError:
            pass  # already stolen/requeued; harmless

    # -- results -------------------------------------------------------------

    def publish_result(
        self,
        chunk: dict,
        worker_id: str,
        outcomes: list,
        sources: list,
        elapsed: float,
    ) -> None:
        document = {
            "chunk": chunk["chunk"],
            "indices": chunk["indices"],
            "worker": worker_id,
            "outcomes": [encode_outcome(outcome) for outcome in outcomes],
            "sources": sources,
            "elapsed": round(elapsed, 6),
        }
        atomic_write_json(
            self.directory(RESULTS) / chunk_file_name(chunk["chunk"]),
            document,
        )

    def read_result(self, index: int) -> dict | None:
        return read_json(self.directory(RESULTS) / chunk_file_name(index))

    # -- segments ------------------------------------------------------------

    def segment_path(self, worker_id: str) -> Path:
        return self.directory(SEGMENTS) / f"segment-{worker_id}.jsonl"

    def segment_paths(self) -> list:
        segments = self.directory(SEGMENTS)
        if not segments.exists():
            return []
        return sorted(segments.glob("segment-*.jsonl"))

    def load_segment_snapshot(self) -> dict:
        """fingerprint -> encoded outcome across all worker segments."""
        snapshot: dict = {}
        for path in self.segment_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        if not line.strip():
                            continue
                        try:
                            record = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # torn tail of a killed worker
                        fingerprint = record.get("fingerprint")
                        result = record.get("result")
                        if isinstance(fingerprint, str) and isinstance(
                            result, str
                        ):
                            snapshot[fingerprint] = result
            except OSError:
                continue
        return snapshot

    # -- workers -------------------------------------------------------------

    def heartbeat(self, worker_id: str, chunks_done: int) -> None:
        # Liveness only, so not fsync'd; workers throttle it because
        # every rename-over frees the previous heartbeat's blocks.
        atomic_write_json(
            self.directory(WORKERS) / f"{worker_id}.json",
            {
                "worker": worker_id,
                "pid": os.getpid(),
                "t": round(time.time(), 3),
                "chunks_done": chunks_done,
            },
            fsync=False,
        )

    def worker_records(self) -> list:
        workers = self.directory(WORKERS)
        if not workers.exists():
            return []
        records = []
        for path in sorted(workers.glob("*.json")):
            record = read_json(path)
            if record is not None:
                records.append(record)
        return records

    # -- status --------------------------------------------------------------

    def status(self, lease_timeout_s: float | None = None) -> dict:
        """JSON-able queue snapshot for ``repro workers status``."""
        manifest = self.manifest() or {}
        if lease_timeout_s is None:
            lease_timeout_s = manifest.get("lease_timeout_s", 30.0)
        now = time.time()
        lease_ages = {}
        if self.directory(LEASES).exists():
            for name in sorted(os.listdir(self.directory(LEASES))):
                try:
                    mtime = (self.directory(LEASES) / name).stat().st_mtime
                except OSError:
                    continue
                lease_ages[name] = round(max(0.0, now - mtime), 3)
        pending = (
            sorted(os.listdir(self.directory(PENDING)))
            if self.directory(PENDING).exists()
            else []
        )
        leases = (
            sorted(os.listdir(self.directory(LEASES)))
            if self.directory(LEASES).exists()
            else []
        )
        results = (
            sorted(os.listdir(self.directory(RESULTS)))
            if self.directory(RESULTS).exists()
            else []
        )
        segment_records = 0
        for path in self.segment_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    segment_records += sum(
                        1 for line in handle if line.strip()
                    )
            except OSError:
                continue  # removed by a concurrent reset()
        return {
            "queue": manifest.get("queue"),
            "n_chunks": manifest.get("n_chunks"),
            "n_items": manifest.get("n_items"),
            "pending": len(pending),
            "leased": len(leases),
            "expired": len(self.expired_leases(lease_timeout_s))
            if leases
            else 0,
            "completed": len(results),
            "done": self.done(),
            "segment_records": segment_records,
            "lease_ages": lease_ages,
            "workers": self.worker_records(),
        }


class WorkQueueExecutor(Executor):
    """Multi-process (and multi-node) execution over a shared directory.

    The coordinator publishes deterministic contiguous chunks into the
    queue and collects results as they land — requeueing expired
    leases so dead workers' chunks are reassigned.  Its ``workers``
    local workers are :attr:`fleet`, a
    :class:`~repro.core.supervisor.WorkerSupervisor` started at each
    map, polled while results land and drained by :meth:`close`.  Its
    forks wake the coordinator through a pipe as each chunk lands, so
    ``poll_s`` is only the ceiling that serves external workers, lease
    expiry, ``timeout_s`` and fleet supervision.  More
    workers on this or other machines join with ``repro workers start
    --queue DIR``.  Local workers are forks, but the task function is
    loaded from ``task.pkl`` by reference, so it must be importable
    (not defined in ``__main__``) for other workers to run it.

    :attr:`stats` counts the last map's merged ``chunks``, points
    served from worker segments (``store_hits``) or evaluated
    (``fresh``), and ``requeued`` leases; each map starts it at zero.
    """

    name = "work_queue"

    def __init__(
        self,
        queue_dir,
        workers: int = 2,
        chunk_size: int | None = None,
        lease_timeout_s: float = 10.0,
        poll_s: float = 0.05,
        timeout_s: float | None = None,
        spawn_workers: bool = True,
        max_respawns: int = 2,
    ) -> None:
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if workers == 0 and spawn_workers:
            raise ConfigurationError(
                "workers=0 requires spawn_workers=False "
                "(external workers drive the queue)"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if lease_timeout_s <= 0:
            raise ConfigurationError("lease_timeout_s must be positive")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")
        self.queue = WorkQueue(queue_dir)
        self.workers = workers
        self.chunk_size = chunk_size
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.fleet = None
        if spawn_workers:
            from repro.core.supervisor import WorkerSupervisor

            # A worker beats between points, and one point may outlast
            # its lease (a sibling steals the chunk while it finishes),
            # so only the silence after which a worker would leave as
            # idle marks it frozen: four leases, at least 10 s.
            idle_s = max(lease_timeout_s * 4, 10.0)
            self.fleet = WorkerSupervisor(
                self.queue.root, n_workers=workers,
                max_respawns=max_respawns, heartbeat_timeout_s=idle_s,
                max_idle_s=idle_s, worker_poll_s=poll_s,
            )
        self.stats = {"chunks": 0, "store_hits": 0, "fresh": 0, "requeued": 0}

    def describe(self) -> dict:
        return {
            "executor": self.name,
            "queue": str(self.queue.root),
            "workers": self.workers,
            "lease_timeout_s": self.lease_timeout_s,
        }

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.drain(CLOSE_GRACE_S)

    # -- the map -------------------------------------------------------------

    def map(
        self, fn, items, *, catch=(), keys=None, ledger=None,
        progress=None, cancel=None, on_chunk=None,
    ) -> list:
        self.stats.update(dict.fromkeys(self.stats, 0))
        items = list(items)
        catch = tuple(catch)
        if keys is not None and len(keys) != len(items):
            raise ConfigurationError(
                "keys must match items one-to-one when provided"
            )
        if not items:
            return []
        # With a trace context bound on the ledger, the whole queue
        # round runs under a "queue map" span and every chunk gets its
        # own child context shipped inside its chunk file — the worker
        # binds it verbatim, which is what parents worker-side spans
        # into this coordinator's trace (docs/OBSERVABILITY.md).
        map_span = None
        map_trace = None
        if (
            ledger is not None
            and getattr(ledger, "trace_context", None) is not None
        ):
            map_span = ledger.span("queue map", n_items=len(items))
            map_span.__enter__()
            map_trace = ledger.trace_context
        try:
            return self._run_queue(
                fn, items, catch, keys, ledger, progress, cancel,
                map_trace, on_chunk,
            )
        finally:
            if map_span is not None:
                map_span.__exit__(None, None, None)

    def _run_queue(
        self, fn, items, catch, keys, ledger, progress, cancel,
        map_trace, on_chunk,
    ) -> list:
        queue_id = uuid.uuid4().hex[:12]
        chunk_size = self.chunk_size
        if chunk_size is None:
            from repro.units import ceil_div

            fanout = max(self.workers, 1)
            chunk_size = max(1, ceil_div(len(items), fanout * 4))
        chunks = [
            list(range(start, min(start + chunk_size, len(items))))
            for start in range(0, len(items), chunk_size)
        ]
        if self.fleet is not None:
            # The previous map's workers leave on its done sentinel; one
            # still polling must not live to see this map's chunks.
            self.fleet.drain(CLOSE_GRACE_S)
        self.queue.reset()
        self.queue.write_task(fn, catch)
        for chunk_index, indices in enumerate(chunks):
            self.queue.publish_chunk(
                chunk_index,
                indices,
                [items[index] for index in indices],
                [keys[index] for index in indices]
                if keys is not None
                else None,
                trace=(
                    map_trace.child().to_dict()
                    if map_trace is not None
                    else None
                ),
            )
        atomic_write_json(
            self.queue.root / MANIFEST,
            {
                "queue": queue_id,
                "n_chunks": len(chunks),
                "n_items": len(items),
                "chunk_size": chunk_size,
                "lease_timeout_s": self.lease_timeout_s,
                "created_t": round(time.time(), 3),
            },
        )
        if ledger is not None:
            ledger.event(
                "queue_start",
                queue=queue_id,
                n_chunks=len(chunks),
                n_items=len(items),
                workers=self.workers,
            )
        if self.fleet is not None:
            self.fleet.start()
        outcomes: dict = {}
        try:
            self._collect(
                chunks, outcomes, ledger, progress, cancel, on_chunk
            )
        finally:
            # Runs on cancellation too: the done sentinel tells workers
            # to finish their current chunk and exit, and the segments
            # they flushed keep whatever completed (resumable, never
            # double-evaluated).  Releasing the fleet wakes its idle
            # workers to leave now, while this map winds up, so the
            # next map's drain or close() finds them gone.
            self.queue.mark_done(queue_id)
            if self.fleet is not None:
                self.fleet.release()
        if ledger is not None:
            ledger.event(
                "queue_end",
                queue=queue_id,
                chunks=self.stats["chunks"],
                requeued=self.stats["requeued"],
                store_hits=self.stats["store_hits"],
                fresh=self.stats["fresh"],
            )
        return [outcomes[index] for index in range(len(items))]

    def _collect(
        self, chunks, outcomes, ledger, progress, cancel, on_chunk
    ) -> None:
        started = time.monotonic()
        last_progress = started
        pending_chunks = set(range(len(chunks)))
        while pending_chunks:
            check_cancelled(cancel)
            landed = []
            for chunk_index in sorted(pending_chunks):
                result = self.queue.read_result(chunk_index)
                if result is None:
                    continue
                self._merge_result(
                    result, outcomes, ledger, progress, on_chunk
                )
                landed.append(chunk_index)
                last_progress = time.monotonic()
            for chunk_index in landed:
                pending_chunks.discard(chunk_index)
            if not pending_chunks:
                break
            requeued = self.queue.requeue_expired(self.lease_timeout_s)
            if requeued:
                self.stats["requeued"] += requeued
                if ledger is not None:
                    ledger.event("lease_expired", requeued=requeued)
            if (
                self.timeout_s is not None
                and time.monotonic() - started > self.timeout_s
            ):
                raise ExecutorError(
                    f"work queue {self.queue.root} missed its "
                    f"{self.timeout_s}s deadline with "
                    f"{len(pending_chunks)} chunk(s) outstanding"
                )
            if (
                self.fleet is not None
                and not self.fleet.poll()
                and time.monotonic() - last_progress
                > self.lease_timeout_s * 2
            ):
                raise ExecutorError(
                    "all work-queue workers died and the respawn "
                    f"budget ({self.fleet.max_respawns} per worker) is "
                    f"exhausted; {len(pending_chunks)} chunk(s) "
                    "outstanding"
                )
            self._wait_for_results()

    def _wait_for_results(self) -> None:
        """Wait until a forked worker reports a published chunk, or
        ``poll_s`` — the ceiling that serves external workers, lease
        expiry, the deadline and fleet supervision."""
        fd = self.fleet.results_fd if self.fleet is not None else None
        if fd is None:
            time.sleep(self.poll_s)
        elif select.select([fd], [], [], self.poll_s)[0]:
            # One scan of results/ answers every byte read here.
            os.read(fd, 4096)

    def _merge_result(
        self, result, outcomes, ledger, progress, on_chunk
    ) -> None:
        indices = result.get("indices", [])
        encoded = result.get("outcomes", [])
        if len(indices) != len(encoded):
            raise ExecutorError(
                f"chunk {result.get('chunk')} result is corrupt: "
                f"{len(indices)} indices vs {len(encoded)} outcomes"
            )
        failed = 0
        for index, text, source in zip(
            indices, encoded, result.get("sources", [])
            or ["fresh"] * len(indices)
        ):
            outcome = decode_outcome(text)
            if outcome is None:
                raise ExecutorError(
                    f"chunk {result.get('chunk')}: undecodable outcome "
                    f"for item {index}"
                )
            outcomes[index] = outcome
            if not outcome.ok:
                failed += 1
            if source == "store":
                self.stats["store_hits"] += 1
            else:
                self.stats["fresh"] += 1
        self.stats["chunks"] += 1
        if on_chunk is not None:
            on_chunk(indices, [outcomes[index] for index in indices])
        if ledger is not None:
            ledger.event(
                "chunk",
                index=result.get("chunk"),
                size=len(indices),
                s=result.get("elapsed", 0.0),
                failed=failed,
                worker=result.get("worker"),
            )
        if progress is not None:
            progress.update(done=len(indices) - failed, failed=failed)
