"""The work-queue executor's local workers are forks of the coordinator.

A forked worker shares the coordinator's memory at the moment of the
fork: its open files with their unflushed buffers, its metrics registry
and the caller's stack.  These tests pin that none of it leaks: the
coordinator's ledger and store get no duplicated or foreign records, a
failing child never returns into the caller's code, every child starts
with metrics off as a fresh interpreter would, ``close()`` reaps every
child, including one it had to SIGKILL, and a workload that kills its
worker on every call spends the fleet's per-worker respawn budget and
fails the map instead of forking without end.

The forks wait on events, not on ``poll_s``: a published chunk wakes
the coordinator through the results pipe, a drain wakes idle workers
through the release pipe's EOF, and neither pipe outlives ``close()``.
"""

import json
import os
import signal
import time

import pytest

import repro.core.executor as executor_module
from repro.core.executor import (
    MANIFEST,
    TASK_FILE,
    WORKERS,
    ExecutorError,
    WorkQueue,
    WorkQueueExecutor,
    atomic_write_json,
)
from repro.core.store import ResultStore
from repro.core.sweep import Sweep
from repro.core.worker import worker_loop
from repro.obs.ledger import RunLedger


# Module-level: queue tasks are pickled by reference.
def _square(x):
    return x * x


def _exit_abruptly(_item):
    os._exit(3)


def _executor(path, **overrides):
    options = dict(
        workers=2, chunk_size=1, poll_s=0.01, timeout_s=60.0,
    )
    options.update(overrides)
    return WorkQueueExecutor(path, **options)


@pytest.fixture
def forks(monkeypatch):
    """The pids of every process forked while the test runs."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    # A zombie would still be ours to wait for; a reaped pid is not.
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_unflushed_ledger_and_store_get_no_worker_records(tmp_path, forks):
    ledger_path = tmp_path / "run.ledger.jsonl"
    store_path = tmp_path / "store.jsonl"
    items = list(range(6))
    sweep = Sweep(axes={"x": items})
    ledger = RunLedger(ledger_path)
    # Not a flushing kind: it sits in the handle's buffer at fork time,
    # beside the executor's own queue_start event.
    ledger.event("note", stage="before map")
    store = ResultStore(path=store_path)
    executor = _executor(tmp_path / "q")
    try:
        result = sweep.run(
            _square, executor=executor, store=store, ledger=ledger
        )
    finally:
        executor.close()
    ledger.event("note", stage="after map")
    ledger.close()
    store.close()
    assert [p.result for p in result.points] == [x * x for x in items]
    assert len(forks) == 2
    _assert_reaped(forks)

    with open(ledger_path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    assert [r["id"] for r in records] == list(range(len(records)))
    assert {r["run"] for r in records} == {ledger.run_id}
    kinds = [r["kind"] for r in records]
    assert kinds.count("ledger_open") == 1
    assert kinds.count("note") == 2
    assert kinds.count("queue_start") == 1
    assert kinds.count("chunk") == len(items)

    with open(store_path, encoding="utf-8") as handle:
        fingerprints = [
            json.loads(line)["fingerprint"] for line in handle if line.strip()
        ]
    assert sorted(fingerprints) == sorted(
        sweep.point_key(parameters) for parameters in sweep.combinations()
    )


def test_failing_child_exits_nonzero_and_never_resumes_the_caller(
    tmp_path, monkeypatch, forks
):
    def write_corrupt_task(self, fn, catch):
        (self.root / TASK_FILE).write_bytes(b"not a pickle")

    monkeypatch.setattr(WorkQueue, "write_task", write_corrupt_task)
    caller_log = tmp_path / "caller.log"
    executor = _executor(tmp_path / "q", lease_timeout_s=0.3)
    try:
        with pytest.raises(ExecutorError, match="respawn budget"):
            executor.map(_square, [1, 2, 3])
    finally:
        # Runs once per process that gets here: a child that unwound
        # out of the fork would append its own pid.
        with open(caller_log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        executor.close()
    assert caller_log.read_text().split() == [str(os.getpid())]
    # Two workers, each respawned through the default budget.
    fleet = executor.fleet
    assert len(forks) == fleet.n_workers * (1 + fleet.max_respawns)
    assert fleet.stats["spawned"] == len(forks)
    assert all(proc.returncode not in (None, 0) for proc in fleet.procs)
    _assert_reaped(forks)
    logs = sorted((tmp_path / "q" / WORKERS).glob("*.log"))
    assert len(logs) == len(forks)
    assert all("UnpicklingError" in log.read_text() for log in logs)


def test_crashing_workload_exhausts_the_respawn_budget(tmp_path, forks):
    # Every evaluation kills its worker: each slot is respawned through
    # its budget, then the map fails fast instead of forking forever.
    executor = _executor(
        tmp_path / "q", lease_timeout_s=0.3, max_respawns=2,
        timeout_s=None,
    )
    started = time.monotonic()
    try:
        with pytest.raises(ExecutorError, match="respawn budget"):
            executor.map(_exit_abruptly, list(range(8)))
    finally:
        executor.close()
    assert time.monotonic() - started < 30.0
    assert len(forks) == executor.workers * (1 + 2)
    assert all(proc.returncode == 3 for proc in executor.fleet.procs)
    _assert_reaped(forks)


def test_close_reaps_a_worker_it_had_to_kill(tmp_path, monkeypatch):
    monkeypatch.setattr(executor_module, "CLOSE_GRACE_S", 0.2)
    executor = _executor(tmp_path / "q", workers=1)
    # No map is running, so the worker waits for a manifest.  It
    # inherits SIGTERM ignored until worker_loop installs its drain
    # handler, and stopped it cannot drain: close()'s SIGTERM never
    # ends it, so close() must SIGKILL it.
    previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        executor.fleet.start()
    finally:
        signal.signal(signal.SIGTERM, previous)
    [proc] = executor.fleet.procs
    os.kill(proc.pid, signal.SIGSTOP)
    executor.close()
    assert proc.returncode == -signal.SIGKILL
    assert executor.fleet.alive_workers() == 0
    _assert_reaped([proc.pid])


def _published_queue(path, n_chunks):
    queue = WorkQueue(path)
    queue.reset()
    queue.write_task(_square, ())
    for index in range(n_chunks):
        queue.publish_chunk(index, [index], [index], None)
    atomic_write_json(
        queue.root / MANIFEST, {"n_chunks": n_chunks, "lease_timeout_s": 5.0}
    )
    return queue


def test_map_and_close_wait_on_events_not_the_poll(tmp_path):
    # poll_s is 2 s, so a coordinator or an idle worker that slept it
    # out even once would blow the budget.
    started = time.monotonic()
    executor = _executor(tmp_path / "q", poll_s=2.0)
    try:
        outcomes = executor.map(_square, [1, 2, 3, 4])
    finally:
        executor.close()
    elapsed = time.monotonic() - started
    assert [o.value for o in outcomes] == [1, 4, 9, 16]
    assert executor.fleet.alive_workers() == 0
    assert elapsed < 1.0, elapsed


def test_worker_writes_one_notify_byte_per_published_chunk(tmp_path):
    queue = _published_queue(tmp_path / "q", n_chunks=2)
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)
    try:
        for index in range(2):
            done = worker_loop(
                queue.root, worker_id="w1", once=True, max_idle_s=5.0,
                notify_fd=write_end,
            )
            assert done == 1
            assert queue.read_result(index) is not None
            assert os.read(read_end, 64) == b"\0"
    finally:
        os.close(read_end)
        os.close(write_end)


def test_idle_worker_leaves_at_release_eof(tmp_path):
    queue = _published_queue(tmp_path / "q", n_chunks=0)
    read_end, write_end = os.pipe()
    os.close(write_end)
    started = time.monotonic()
    try:
        done = worker_loop(
            queue.root, worker_id="w1", poll_s=30.0, max_idle_s=60.0,
            release_fd=read_end,
        )
    finally:
        os.close(read_end)
    assert done == 0
    assert time.monotonic() - started < 5.0


def test_fleet_pipes_close_with_the_executor(tmp_path):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    for round_index in range(3):
        executor = _executor(tmp_path / f"q{round_index}")
        try:
            assert executor.map(_square, [1, 2, 3])[2].value == 9
        finally:
            executor.close()
    assert open_fds() == before
