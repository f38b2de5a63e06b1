"""Tests for the executor interface and the work-queue executor.

The chaos tests exercise the distributed failure model end to end: a
worker that dies holding a lease must have its chunk reassigned, its
already-completed points served from its fsync'd segment (never
evaluated twice), and the merged result must stay bit-identical to the
serial reference.
"""

import math
import os
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.core.executor import (
    ExecutorError,
    LocalPoolExecutor,
    SerialExecutor,
    WorkQueue,
    WorkQueueExecutor,
    chunk_file_name,
)
from repro.core.parallel import PointOutcome
from repro.core.store import ResultStore, decode_outcome, encode_outcome
from repro.core.sweep import Sweep
from repro.core.worker import worker_loop
from repro.errors import ConfigurationError, InfeasibleError
from repro.obs.ledger import MemoryLedger


# Module-level: worker processes unpickle queue tasks by reference.
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise InfeasibleError("three is right out")
    return x


def _logged_square(x):
    """Evaluation with a side-effect audit trail (O_APPEND is atomic)."""
    with open(os.environ["EXECUTOR_TEST_LOG"], "a") as handle:
        handle.write(f"{x}\n")
    return x * x


def _chaos_point(x):
    time.sleep(0.25)
    return x * x + 1


def _slow_square(x):
    time.sleep(0.05)
    return x * x


def _never(**_params):
    raise RuntimeError("must be served from the store, not evaluated")


def _read_log(path):
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [int(line) for line in handle if line.strip()]


class TestExecutorParity:
    def test_serial_and_local_pool_agree(self):
        items = list(range(8))
        serial = SerialExecutor().map(_square, items)
        pool = LocalPoolExecutor(workers=2, chunk_size=2).map(_square, items)
        assert [o.value for o in serial] == [o.value for o in pool]
        assert all(o.ok for o in serial)

    def test_catch_becomes_failed_outcomes(self):
        outcomes = SerialExecutor().map(
            _fail_on_three, [1, 3], catch=(InfeasibleError,)
        )
        assert outcomes[0].ok and not outcomes[1].ok

    def test_sweep_local_pool_matches_serial(self):
        sweep = Sweep(axes={"x": [1, 2, 3, 4]})
        pool = sweep.run(
            _square,
            executor=LocalPoolExecutor(workers=2),
        )
        serial = sweep.run(_kwarg_square, executor=SerialExecutor())
        assert [p.result for p in serial.points] == [
            p.result for p in pool.points
        ]

    def test_sweep_rejects_parallel_plus_executor(self):
        # executor= is the one way to say where points run; the
        # retired parallel= keyword is no longer accepted beside it.
        with pytest.raises(TypeError, match="parallel"):
            Sweep(axes={"x": [1]}).run(
                _square,
                parallel=LocalPoolExecutor(workers=2),
                executor=SerialExecutor(),
            )

    def test_run_start_records_executor_description(self):
        ledger = MemoryLedger(run_id="desc")
        Sweep(axes={"x": [1, 2]}).run(
            _kwarg_square, executor=SerialExecutor(), ledger=ledger
        )
        Sweep(axes={"x": [1, 2]}).run(_kwarg_square, ledger=ledger)
        starts = [e for e in ledger.events if e["kind"] == "run_start"]
        assert [e["executor"] for e in starts] == [{"executor": "serial"}] * 2


def _kwarg_square(x):
    return x * x


class TestWorkQueuePrimitives:
    def test_claim_is_single_winner(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0, 1], ["a", "b"], None)
        first = queue.claim_chunk("chunk-00000.json", "w1")
        assert first is not None and first["indices"] == [0, 1]
        assert queue.claim_chunk("chunk-00000.json", "w2") is None

    def test_claim_next_takes_lowest_index(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        for index in (2, 0, 1):
            queue.publish_chunk(index, [index], [index], None)
        claimed = queue.claim_next("w1")
        assert claimed["chunk"] == 0

    def test_expired_lease_requeued_and_stolen(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], ["a"], None)
        chunk = queue.claim_next("dead")
        stale = time.time() - 100
        os.utime(chunk["_lease_path"], (stale, stale))
        # A live lease is not stolen...
        assert queue.expired_leases(lease_timeout_s=1000.0) == []
        # ...an expired one is requeued and claimable again.
        assert queue.requeue_expired(lease_timeout_s=1.0) == 1
        stolen = queue.claim_next("thief")
        assert stolen is not None and stolen["chunk"] == 0

    def test_claim_next_leaves_expired_leases_to_coordinator(self, tmp_path):
        # An idle worker never steals: an expired lease stays put until
        # the coordinator's requeue_expired counts it.
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], ["a"], None)
        chunk = queue.claim_next("dead")
        stale = time.time() - 100
        os.utime(chunk["_lease_path"], (stale, stale))
        assert queue.claim_next("idle") is None
        assert os.path.exists(chunk["_lease_path"])
        assert queue.requeue_expired(lease_timeout_s=1.0) == 1
        assert queue.claim_next("idle")["chunk"] == 0

    def test_completed_chunks_lease_dropped_not_requeued(self, tmp_path):
        # Worker died between publishing the result and releasing the
        # lease: the chunk is finished and must not run again.
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], ["a"], None)
        chunk = queue.claim_next("dead")
        queue.publish_result(
            chunk, "dead", [PointOutcome(ok=True, value=1)], ["fresh"], 0.1
        )
        stale = time.time() - 100
        os.utime(chunk["_lease_path"], (stale, stale))
        assert queue.requeue_expired(lease_timeout_s=1.0) == 0
        assert os.listdir(queue.directory("pending")) == []
        assert os.listdir(queue.directory("leases")) == []

    def test_segment_snapshot_skips_torn_tail(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        with ResultStore(path=queue.segment_path("w1")) as segment:
            segment.put("fp", "text")
        with open(queue.segment_path("w1"), "a") as handle:
            handle.write('{"fingerprint": "torn", "resu')
        assert queue.load_segment_snapshot() == {"fp": "text"}

    def test_status_snapshot(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], [0], None)
        queue.publish_chunk(1, [1], [1], None)
        queue.claim_next("w1")
        status = queue.status(lease_timeout_s=30.0)
        assert status["pending"] == 1
        assert status["leased"] == 1
        assert status["completed"] == 0
        assert not status["done"]

    def test_status_survives_a_vanished_segment(self, tmp_path, monkeypatch):
        # A concurrent reset() may delete a segment between listing and
        # reading it; the snapshot counts what is still there.
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        with ResultStore(path=queue.segment_path("a")) as segment:
            segment.put("fp-1", "one")
            segment.put("fp-2", "two")
        listed = [queue.segment_path("gone"), *queue.segment_paths()]
        monkeypatch.setattr(queue, "segment_paths", lambda: listed)
        assert queue.status()["segment_records"] == 2


class TestRetiredNames:
    """Entry points retired in favour of one spelling per decision:
    ``executor=`` picks where points run, the sweep's ``store=`` is the
    only result store, the explorer always evaluates in-process, and
    the in-process fan-out is the serial and pool executors alone, with
    no retry, backoff or per-chunk timeout layer."""

    @pytest.mark.parametrize(
        "module, owner, name",
        [
            ("repro.core.executor", None, "coerce_executor"),
            ("repro.core.explorer", None, "_EvaluateMacroTask"),
            ("repro.core.store", "ResultStore", "merge_file"),
            ("repro.core.parallel", None, "parallel_map"),
            ("repro.core.parallel", None, "ParallelConfig"),
            ("repro.core.parallel", None, "TRANSIENT_POOL_ERRORS"),
            ("repro.serve.handlers", None, "_CountingEvaluate"),
        ],
        ids=[
            "coerce_executor", "evaluate_macro_task", "merge_file",
            "parallel_map", "parallel_config", "transient_pool_errors",
            "counting_evaluate",
        ],
    )
    def test_name_is_gone(self, module, owner, name):
        import importlib

        scope = importlib.import_module(module)
        if owner is not None:
            scope = getattr(scope, owner)
        assert not hasattr(scope, name)

    @pytest.mark.parametrize(
        "keyword, value",
        [("timeout_s", 60.0), ("max_retries", 2), ("backoff_s", 0.05)],
    )
    def test_local_pool_takes_no_retry_or_timeout_knob(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            LocalPoolExecutor(workers=2, **{keyword: value})


class TestLeaseClockSkew:
    """Lease aging under wall-clock skew (NFS queues, multi-node).

    ``expired_leases`` anchors ages to the observer's monotonic clock;
    lease mtimes written by skewed claimants must neither trigger
    instant steals (slow clock) nor immortal leases (fast clock).
    """

    def _claimed(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], ["a"], None)
        chunk = queue.claim_next("skewed")
        return queue, chunk

    def test_backdated_lease_expires_on_first_sighting(self, tmp_path):
        queue, chunk = self._claimed(tmp_path)
        stale = time.time() - 100
        os.utime(chunk["_lease_path"], (stale, stale))
        name = os.path.basename(chunk["_lease_path"])
        assert queue.expired_leases(lease_timeout_s=1.0) == [name]

    def test_future_dated_lease_still_expires(self, tmp_path):
        # A dead claimant whose clock ran fast leaves an mtime in the
        # observer's future; raw `now - mtime` would never expire it.
        queue, chunk = self._claimed(tmp_path)
        ahead = time.time() + 1000
        os.utime(chunk["_lease_path"], (ahead, ahead))
        name = os.path.basename(chunk["_lease_path"])
        assert queue.expired_leases(lease_timeout_s=0.05) == []
        time.sleep(0.15)  # age grows by *monotonic* elapsed time
        assert queue.expired_leases(lease_timeout_s=0.05) == [name]

    def test_renewal_resets_the_observed_age(self, tmp_path):
        queue, chunk = self._claimed(tmp_path)
        old = time.time() - 1.9
        os.utime(chunk["_lease_path"], (old, old))
        # First sighting: 1.9s of a 2.0s budget already gone.
        assert queue.expired_leases(lease_timeout_s=2.0) == []
        queue.renew_lease(chunk["_lease_path"])
        time.sleep(0.3)
        # Without the renewal re-anchor this would read 1.9 + 0.3s.
        assert queue.expired_leases(lease_timeout_s=2.0) == []

    def test_claim_restarts_the_lease_clock(self, tmp_path):
        # The pending->leases rename keeps the chunk file's publish
        # mtime; a chunk claimed long after publication must not look
        # instantly expired to a fresh observer.
        queue = WorkQueue(tmp_path / "q")
        queue.reset()
        queue.publish_chunk(0, [0], ["a"], None)
        pending = queue.directory("pending") / chunk_file_name(0)
        stale = time.time() - 100
        os.utime(pending, (stale, stale))
        chunk = queue.claim_next("late")
        assert chunk is not None
        assert queue.expired_leases(lease_timeout_s=1.0) == []


class TestWorkQueueExecutor:
    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WorkQueueExecutor(tmp_path / "q", workers=-1)
        with pytest.raises(ConfigurationError):
            WorkQueueExecutor(tmp_path / "q", workers=0)  # needs externals
        with pytest.raises(ConfigurationError):
            WorkQueueExecutor(tmp_path / "q", chunk_size=0)
        with pytest.raises(ConfigurationError):
            WorkQueueExecutor(tmp_path / "q", lease_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            WorkQueueExecutor(tmp_path / "q", timeout_s=-1.0)

    def test_keys_must_match_items(self, tmp_path):
        executor = WorkQueueExecutor(
            tmp_path / "q", workers=0, spawn_workers=False
        )
        with pytest.raises(ConfigurationError):
            executor.map(_square, [1, 2], keys=["only-one"])

    def test_empty_items_short_circuit(self, tmp_path):
        executor = WorkQueueExecutor(
            tmp_path / "q", workers=0, spawn_workers=False
        )
        assert executor.map(_square, []) == []

    def test_deadline_raises_executor_error(self, tmp_path):
        executor = WorkQueueExecutor(
            tmp_path / "q",
            workers=0,
            spawn_workers=False,
            poll_s=0.01,
            timeout_s=0.3,
        )
        with pytest.raises(ExecutorError, match="deadline"):
            executor.map(_square, [1, 2, 3])

    def test_fully_cached_map_never_touches_the_queue(self, tmp_path):
        # The sweep's store serves every point before the executor
        # runs, so a queue with no workers is never even published.
        sweep = Sweep(axes={"x": [1, 2]})
        store = ResultStore()
        for parameters in sweep.combinations():
            store.put(
                sweep.point_key(parameters),
                encode_outcome(
                    PointOutcome(ok=True, value=parameters["x"] ** 2)
                ),
            )
        executor = WorkQueueExecutor(
            tmp_path / "q", workers=0, spawn_workers=False
        )
        result = sweep.run(_never, executor=executor, store=store)
        assert [p.result for p in result.points] == [1, 4]
        assert executor.stats["chunks"] == 0
        assert not (tmp_path / "q" / "manifest.json").exists()

    def test_holds_no_result_store_of_its_own(self, tmp_path):
        # The sweep's store= is the only result store: the executor
        # takes none, reports none and counts no merges into one.
        with pytest.raises(TypeError, match="store"):
            WorkQueueExecutor(
                tmp_path / "q", workers=0, spawn_workers=False,
                store=ResultStore(),
            )
        executor = WorkQueueExecutor(
            tmp_path / "q", workers=0, spawn_workers=False
        )
        assert "store" not in executor.describe()
        assert set(executor.stats) == {
            "chunks", "store_hits", "fresh", "requeued",
        }

    def test_stats_cover_one_map(self, tmp_path):
        # A reused executor reports each map's own counts, not
        # lifetime totals, in its stats and its queue_end event.
        ledger = MemoryLedger(run_id="reused")
        executor = WorkQueueExecutor(tmp_path / "q", workers=2)
        try:
            for _ in range(2):
                outcomes = executor.map(_square, range(4), ledger=ledger)
                assert [o.value for o in outcomes] == [0, 1, 4, 9]
                assert executor.stats == {
                    "chunks": 4, "store_hits": 0, "fresh": 4, "requeued": 0,
                }
        finally:
            executor.close()
        ends = [e for e in ledger.events if e["kind"] == "queue_end"]
        assert [(e["chunks"], e["fresh"]) for e in ends] == [(4, 4), (4, 4)]

    def test_external_worker_drives_queue(self, tmp_path, monkeypatch):
        log = tmp_path / "evals.log"
        monkeypatch.setenv("EXECUTOR_TEST_LOG", str(log))
        executor = WorkQueueExecutor(
            tmp_path / "q",
            workers=0,
            spawn_workers=False,
            chunk_size=2,
            poll_s=0.01,
            timeout_s=60.0,
        )
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                outcomes=executor.map(_logged_square, list(range(6)))
            )
        )
        thread.start()
        worker_loop(
            tmp_path / "q", worker_id="w1", max_idle_s=30.0, poll_s=0.01
        )
        thread.join(timeout=60.0)
        assert [o.value for o in holder["outcomes"]] == [
            x * x for x in range(6)
        ]
        assert sorted(_read_log(log)) == list(range(6))

    def test_dead_workers_chunk_stolen_without_reevaluation(
        self, tmp_path, monkeypatch
    ):
        # The deterministic lease-reassignment scenario: a worker
        # claimed a chunk, finished one point (fsync'd into its
        # segment), then died. The lease expires, the chunk is
        # requeued, and the survivor serves the finished point from
        # the dead worker's segment — the no-double-eval contract.
        log = tmp_path / "evals.log"
        monkeypatch.setenv("EXECUTOR_TEST_LOG", str(log))
        store = ResultStore(path=tmp_path / "store.jsonl")
        executor = WorkQueueExecutor(
            tmp_path / "q",
            workers=0,
            spawn_workers=False,
            chunk_size=2,
            lease_timeout_s=0.8,
            poll_s=0.01,
            timeout_s=60.0,
        )
        items = list(range(6))
        sweep = Sweep(axes={"x": items})
        ledger = MemoryLedger(run_id="chaos-lease")
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                result=sweep.run(
                    _logged_square, executor=executor, store=store,
                    ledger=ledger,
                )
            )
        )
        thread.start()
        queue = WorkQueue(tmp_path / "q")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            pending = queue.directory("pending")
            if pending.exists() and (pending / "chunk-00000.json").exists():
                break
            time.sleep(0.01)
        chunk = queue.claim_chunk("chunk-00000.json", "doomed")
        assert chunk is not None, "test lost the claim race"
        # The doomed worker completed its first point before dying.
        with ResultStore(
            path=queue.segment_path("doomed"), fsync=True
        ) as segment:
            segment.put(
                chunk["keys"][0],
                encode_outcome(PointOutcome(ok=True, value=0)),
            )
        stale = time.time() - 100
        os.utime(chunk["_lease_path"], (stale, stale))
        worker_loop(
            tmp_path / "q", worker_id="w1", max_idle_s=30.0, poll_s=0.01
        )
        thread.join(timeout=60.0)
        result = holder["result"]
        assert [p.result for p in result.points] == [x * x for x in items]
        # The lease was reassigned — by the coordinator, the only
        # requeuer, so the count is exact...
        assert executor.stats["requeued"] == 1
        assert [
            e["requeued"] for e in ledger.events
            if e["kind"] in ("lease_expired", "queue_end")
        ] == [1, 1]
        # ...and the dead worker's finished point was served from its
        # segment, never re-evaluated: item 0 is absent from the audit
        # log, every other item appears exactly once.
        evaluated = _read_log(log)
        assert sorted(evaluated) == [1, 2, 3, 4, 5]
        assert executor.stats["store_hits"] >= 1
        # The sweep stored every landed chunk, the segment-served point
        # included, so the durable store holds the whole sweep.
        for parameters in sweep.combinations():
            text = store.get(sweep.point_key(parameters))
            assert decode_outcome(text).value == parameters["x"] ** 2
        store.close()


class _QueueFileOps:
    """Counts ``os.fsync``/``os.replace``/``os.unlink`` per queue entry.

    An operation is filed under the first path component below the
    queue root (``pending``, ``results``, ``store``, ``workers``, ...),
    and every heartbeat write (a replace into ``workers/``) is
    timestamped.
    """

    def __init__(self, monkeypatch, root) -> None:
        self.root = Path(root).resolve()
        self.fsyncs = Counter()
        self.replaces = Counter()
        self.unlinks = Counter()
        self.heartbeats = []
        real_fsync, real_replace = os.fsync, os.replace
        real_unlink = os.unlink

        def fsync(fd):
            self.fsyncs[self._entry(os.readlink(f"/proc/self/fd/{fd}"))] += 1
            return real_fsync(fd)

        def replace(source, target, *args, **kwargs):
            entry = self._entry(target)
            self.replaces[entry] += 1
            if entry == "workers":
                self.heartbeats.append(time.monotonic())
            return real_replace(source, target, *args, **kwargs)

        def unlink(path, *args, **kwargs):
            self.unlinks[self._entry(path)] += 1
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "unlink", unlink)

    def _entry(self, path):
        try:
            return Path(path).resolve().relative_to(self.root).parts[0]
        except (ValueError, IndexError):
            return None


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestQueueFilesystemChurn:
    """Only what must survive a crash is fsync'd, and a worker's
    heartbeat is written per ``heartbeat_s``, not per chunk."""

    def _drive(self, tmp_path, monkeypatch, fn, items, chunk_size,
               heartbeat_s):
        ops = _QueueFileOps(monkeypatch, tmp_path / "q")
        executor = WorkQueueExecutor(
            tmp_path / "q",
            workers=0,
            spawn_workers=False,
            chunk_size=chunk_size,
            poll_s=0.01,
            timeout_s=60.0,
        )
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                outcomes=executor.map(
                    fn, items, keys=[f"fp-{x}" for x in items]
                )
            )
        )
        thread.start()
        started = time.monotonic()
        worker_loop(
            tmp_path / "q",
            worker_id="w1",
            max_idle_s=30.0,
            poll_s=0.01,
            heartbeat_s=heartbeat_s,
        )
        elapsed = time.monotonic() - started
        thread.join(timeout=60.0)
        assert [o.value for o in holder["outcomes"]] == [
            x * x for x in items
        ]
        return ops, elapsed

    def test_fsyncs_only_what_must_survive(self, tmp_path, monkeypatch):
        items = list(range(8))
        ops, elapsed = self._drive(
            tmp_path, monkeypatch, _square, items, chunk_size=2,
            heartbeat_s=1.0,
        )
        n_chunks = 4
        assert ops.fsyncs["pending"] == 0
        assert ops.fsyncs["leases"] == 0
        assert ops.replaces["workers"] <= 1 + math.ceil(elapsed / 1.0)
        # Every result is published fsync'd...
        assert ops.replaces["results"] == n_chunks
        assert ops.fsyncs["results"] == n_chunks
        # ...and every fresh point's segment append is fsync'd.
        assert ops.fsyncs["store"] >= len(items)
        # So are the files a worker or a restart reads back (each is
        # written through a tmp name beside it).
        for name in ("manifest.json", "task.pkl", "done.json"):
            assert sum(
                count
                for entry, count in ops.fsyncs.items()
                if entry and entry.startswith(name)
            ) == 1, name
        assert ops.fsyncs["workers"] == 0
        assert ops.unlinks["leases"] == n_chunks

    def test_slow_chunk_still_refreshes_the_heartbeat(
        self, tmp_path, monkeypatch
    ):
        heartbeat_s = 0.2
        items = list(range(20))  # one 1 s chunk
        ops, elapsed = self._drive(
            tmp_path, monkeypatch, _slow_square, items,
            chunk_size=len(items), heartbeat_s=heartbeat_s,
        )
        beats = ops.heartbeats
        assert len(beats) <= 1 + math.ceil(elapsed / heartbeat_s)
        assert len(beats) >= 3
        gaps = [later - earlier for earlier, later in zip(beats, beats[1:])]
        # A beat is due every heartbeat_s and checked after every point;
        # beating only per chunk would leave a 1 s gap.
        assert max(gaps) < heartbeat_s + 0.05 + 0.35


class TestWorkQueueChaosSigkill:
    def test_sigkill_worker_mid_sweep_bit_identical(self, tmp_path):
        # Three real worker processes, one SIGKILL'd mid-sweep: the
        # merged result must be bit-identical to serial, and a re-run
        # against the store must evaluate nothing (the store probe —
        # the workload raises if ever called).
        sweep = Sweep(axes={"x": list(range(9))})
        serial = sweep.run(_chaos_point)
        reference = [(p.parameters, p.result) for p in serial.points]

        store = ResultStore(path=tmp_path / "store.jsonl")
        executor = WorkQueueExecutor(
            tmp_path / "q",
            workers=3,
            chunk_size=1,
            lease_timeout_s=1.5,
            poll_s=0.02,
            timeout_s=300.0,
        )
        holder = {}

        def run():
            holder["result"] = sweep.run(
                _chaos_point, executor=executor, store=store
            )

        thread = threading.Thread(target=run)
        thread.start()
        queue = WorkQueue(tmp_path / "q")
        leases = queue.directory("leases")
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if (
                executor.fleet.procs
                and leases.exists()
                and os.listdir(leases)
            ):
                break
            time.sleep(0.02)
        assert executor.fleet.procs, "no workers were spawned"
        executor.fleet.procs[0].kill()  # SIGKILL, not a polite TERM
        thread.join(timeout=300.0)
        executor.close()
        result = holder.get("result")
        assert result is not None, "sweep did not survive the kill"
        assert [
            (p.parameters, p.result) for p in result.points
        ] == reference
        # Store probe: every fingerprint is durable; nothing is ever
        # evaluated twice — a fresh run with a workload that *cannot*
        # be evaluated is served entirely from the store.
        resumed = sweep.run(_never, store=store)
        assert [
            (p.parameters, p.result) for p in resumed.points
        ] == reference
        store.close()
