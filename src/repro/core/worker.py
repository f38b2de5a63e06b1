"""Work-queue worker process: claim, evaluate, publish, repeat.

Every local worker fleet — the executor's own and ``repro workers
start``'s — is a :class:`~repro.core.supervisor.WorkerSupervisor`
whose forks call :func:`worker_loop` directly; ``python -m
repro.core.worker --queue DIR [--worker-id ID]`` runs one unsupervised
worker.  Any number of workers — on this machine or on any machine
sharing the queue directory — cooperate on one
:class:`~repro.core.executor.WorkQueueExecutor` map:

1. claim the lowest pending chunk by atomic rename (losing a rename
   race is normal: move to the next file);
2. with no pending chunks, poll again: the coordinator requeues a dead
   worker's expired lease into ``pending/`` (work stealing), and the
   next idle worker claims it there;
3. evaluate the chunk point by point, renewing the lease's mtime after
   every point so a live worker on a slow chunk is never robbed;
4. append every fresh evaluation to this worker's own fsync'd
   :class:`~repro.core.store.ResultStore` segment *before* moving on —
   a ``SIGKILL`` at any instant loses at most the point in flight;
5. for chunks that carry content keys (stolen chunks especially),
   consult the combined segment snapshot first so points a dead worker
   already finished are served from the store, not evaluated twice;
6. publish the chunk result atomically (fsync'd) and release the lease.

The worker exits when the coordinator writes the ``done`` sentinel,
when the queue has been idle longer than ``--max-idle-s``, or after one
chunk with ``--once`` (used by the chaos tests to step workers
deterministically).

``SIGTERM`` requests a *graceful drain*: the worker finishes the chunk
it is evaluating, publishes its result, releases its lease, lets the
segment's context manager flush, and exits — the contract the
supervisor's drain relies on.  While
running it also refreshes its heartbeat file once a second, throttled
(idle polls, per evaluated point and per chunk), so a supervisor can
tell a frozen worker from a busy one.

A supervisor's forks wait on events, not sleeps (see
:mod:`repro.core.supervisor`): after each published chunk they write
one byte to ``notify_fd``, which wakes the coordinator, and while idle
they select on ``release_fd``, whose EOF — the supervisor releasing
its fleet, or gone — is a drain request too.  A worker without these
fds, such as ``python -m repro.core.worker``, sleeps ``poll_s``
between polls.
"""

from __future__ import annotations

import argparse
import base64
import os
import pickle
import select
import signal
import sys
import time
import uuid

from repro.core.executor import WorkQueue
from repro.core.parallel import PointOutcome
from repro.core.store import ResultStore, decode_outcome, encode_outcome

#: Queue subdirectory holding per-process worker ledgers for traced
#: runs (`repro trace --merge` collects them alongside the
#: coordinator's).
LEDGERS_DIR = "ledgers"


def evaluate_chunk(
    queue: WorkQueue,
    chunk: dict,
    fn,
    catch: tuple,
    worker_id: str,
    segment: ResultStore,
    heartbeat=None,
) -> tuple:
    """Evaluate one claimed chunk; returns (outcomes, sources, elapsed).

    ``sources[i]`` is ``"store"`` when the point was served from a
    worker segment (its fingerprint was already evaluated — typically
    by the dead worker this chunk was stolen from) and ``"fresh"``
    when this worker evaluated it.  ``heartbeat`` (optional callable)
    is invoked after every point so liveness stays visible on slow
    chunks; callers throttle it.
    """
    items = pickle.loads(base64.b64decode(chunk["items"]))
    keys = chunk.get("keys")
    snapshot = queue.load_segment_snapshot() if keys else {}
    lease_path = chunk.get("_lease_path")
    outcomes = []
    sources = []
    start = time.perf_counter()
    for position, item in enumerate(items):
        key = keys[position] if keys else None
        outcome = None
        if key is not None:
            stored = snapshot.get(key)
            if stored is not None:
                outcome = decode_outcome(stored)
        if outcome is not None:
            sources.append("store")
        else:
            try:
                outcome = PointOutcome(ok=True, value=fn(item))
            except catch as error:
                outcome = PointOutcome(ok=False, error=repr(error))
            sources.append("fresh")
            if key is not None:
                segment.put(key, encode_outcome(outcome))
        outcomes.append(outcome)
        if lease_path is not None:
            queue.renew_lease(lease_path)
        if heartbeat is not None:
            heartbeat()
    return outcomes, sources, time.perf_counter() - start


def worker_loop(
    queue_dir,
    worker_id: str | None = None,
    max_idle_s: float = 30.0,
    poll_s: float = 0.05,
    once: bool = False,
    heartbeat_s: float = 1.0,
    notify_fd: int | None = None,
    release_fd: int | None = None,
) -> int:
    """Main loop; returns the number of chunks this worker completed.

    Installs a ``SIGTERM`` handler (main thread only) that requests a
    graceful drain: the in-flight chunk completes, publishes and
    releases before the loop exits.  ``notify_fd`` gets one byte per
    published chunk; ``release_fd``, never written to, is waited on
    while idle, and its EOF requests a drain.
    """
    worker_id = worker_id or f"{os.getpid()}-{uuid.uuid4().hex[:6]}"
    queue = WorkQueue(queue_dir)
    draining = {"flag": False}

    def _request_drain(signum, frame):
        draining["flag"] = True

    def idle_wait() -> None:
        if release_fd is None:
            time.sleep(poll_s)
        elif select.select([release_fd], [], [], poll_s)[0]:
            draining["flag"] = True

    try:
        previous_handler = signal.signal(signal.SIGTERM, _request_drain)
        # A forked worker starts with SIGTERM blocked, so a drain sent
        # before this handler existed is held for it, not lost.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    except ValueError:
        previous_handler = None  # not the main thread (in-process tests)
    try:
        manifest = None
        idle_since = time.monotonic()
        # The coordinator may still be publishing: wait for the manifest.
        while manifest is None:
            manifest = queue.manifest()
            if manifest is not None:
                break
            if queue.done() or draining["flag"]:
                return 0
            if time.monotonic() - idle_since > max_idle_s:
                return 0
            idle_wait()
        fn, catch = queue.load_task()
        chunks_done = 0
        last_beat = 0.0
        trace_ledger = None  # opened lazily on the first traced chunk

        def beat() -> None:
            # Throttled: at most one heartbeat write per heartbeat_s,
            # called from idle polls, per evaluated point and per chunk
            # — a supervisor reading the file's mtime can tell frozen
            # (silent) from busy (beating) at that resolution, and a
            # map of short chunks does not rewrite the file per chunk.
            nonlocal last_beat
            now = time.monotonic()
            if now - last_beat >= heartbeat_s:
                queue.heartbeat(worker_id, chunks_done)
                last_beat = now

        # fsync per append: this segment is exactly what survives SIGKILL.
        with ResultStore(
            path=queue.segment_path(worker_id), fsync=True
        ) as segment:
            queue.heartbeat(worker_id, chunks_done)
            last_beat = time.monotonic()
            idle_since = time.monotonic()
            while True:
                if queue.done() or draining["flag"]:
                    break
                chunk = queue.claim_next(worker_id)
                if chunk is None:
                    beat()
                    if time.monotonic() - idle_since > max_idle_s:
                        break
                    idle_wait()
                    continue
                idle_since = time.monotonic()
                trace = chunk.get("trace")
                if trace is None:
                    outcomes, sources, elapsed = evaluate_chunk(
                        queue, chunk, fn, catch, worker_id, segment,
                        heartbeat=beat,
                    )
                else:
                    # Traced chunk: bind its context *verbatim* (not a
                    # child) so this span's id is the one the
                    # coordinator minted — a stolen chunk re-emits
                    # under the same identity, which is what keeps a
                    # SIGKILL'd worker's spans free of orphan parents
                    # in the merged trace.
                    if trace_ledger is None:
                        from repro.obs.ledger import RunLedger

                        ledger_dir = queue.root / LEDGERS_DIR
                        ledger_dir.mkdir(parents=True, exist_ok=True)
                        trace_ledger = RunLedger(
                            ledger_dir / f"worker-{worker_id}.jsonl"
                        )
                    name = f"chunk {chunk['chunk']}"
                    with trace_ledger.bind_trace(trace):
                        start_id = trace_ledger.event(
                            "span_start",
                            name=name,
                            worker=worker_id,
                            index=chunk["chunk"],
                            size=len(chunk.get("indices", [])),
                        )
                        outcomes, sources, elapsed = evaluate_chunk(
                            queue, chunk, fn, catch, worker_id, segment,
                            heartbeat=beat,
                        )
                        trace_ledger.event(
                            "span_end",
                            name=name,
                            span=start_id,
                            s=round(elapsed, 6),
                            failed=sum(
                                1 for o in outcomes if not o.ok
                            ),
                        )
                    trace_ledger.flush()
                queue.publish_result(
                    chunk, worker_id, outcomes, sources, elapsed
                )
                queue.release_lease(chunk["_lease_path"])
                if notify_fd is not None:
                    # A full pipe wakes the coordinator anyway, and a
                    # closed one has no reader left to wake.
                    try:
                        os.write(notify_fd, b"\0")
                    except (BlockingIOError, BrokenPipeError):
                        pass
                chunks_done += 1
                beat()
                if once:
                    break
        if trace_ledger is not None:
            trace_ledger.close()
        return chunks_done
    finally:
        if previous_handler is not None:
            try:
                signal.signal(signal.SIGTERM, previous_handler)
            except ValueError:
                pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Work-queue sweep worker (see docs/DISTRIBUTED.md)",
    )
    parser.add_argument("--queue", required=True, help="queue directory")
    parser.add_argument(
        "--worker-id", default=None, help="stable id (default: pid-random)"
    )
    parser.add_argument(
        "--max-idle-s",
        type=float,
        default=30.0,
        help="exit after this long with nothing to claim",
    )
    parser.add_argument(
        "--poll-s", type=float, default=0.05, help="claim poll interval"
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit after completing one chunk (testing)",
    )
    args = parser.parse_args(argv)
    worker_loop(
        args.queue,
        worker_id=args.worker_id,
        max_idle_s=args.max_idle_s,
        poll_s=args.poll_s,
        once=args.once,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
