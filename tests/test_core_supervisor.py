"""Tests for the worker fleet (``WorkerSupervisor``).

Fast paths (fake processes, direct ``_respawn``/``poll`` calls) cover
the bookkeeping: bounded exponential respawn backoff, the respawn cap,
the clean-exit rule (respawned only while the queue has work) and
freeze detection off a backdated heartbeat file.  Slower tests fork
real workers to check the full loop: the fleet drains a queue to
completion, ``drain()`` SIGTERMs idle workers into clean (code 0)
exits, and ``run()`` returns once every worker has exited for good.
"""

import os
import threading
import time

import pytest

from repro.core.executor import (
    WORKERS,
    WorkQueue,
    atomic_write_json,
)
from repro.core.supervisor import WorkerSupervisor
from repro.errors import ConfigurationError


# Module-level: worker processes unpickle queue tasks by reference.
def _double(x):
    return x * 2


class _FakeProc:
    """Stand-in process with a scriptable liveness answer."""

    def __init__(self, alive=True, code=1):
        self.alive = alive
        self.code = code
        self.killed = False

    def poll(self):
        return None if self.alive else self.code

    def kill(self):
        self.killed = True
        self.alive = False

    def wait(self, timeout=None):
        return 0


def _queue_with_manifest(tmp_path, chunks=()):
    queue = WorkQueue(tmp_path / "q")
    queue.reset()
    queue.write_task(_double, catch=())
    for index, item in enumerate(chunks):
        queue.publish_chunk(index, [index], [item], None)
    atomic_write_json(
        queue.root / "manifest.json", {"lease_timeout_s": 5.0}
    )
    return queue


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_workers": 0},
            {"max_respawns": -1},
            {"backoff_s": -0.1},
            {"heartbeat_timeout_s": 0.0},
            {"poll_s": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, tmp_path, overrides):
        with pytest.raises(ConfigurationError):
            WorkerSupervisor(tmp_path / "q", **overrides)


class TestHeartbeatAge:
    def test_never_seen_is_none(self, tmp_path):
        queue = _queue_with_manifest(tmp_path)
        supervisor = WorkerSupervisor(queue.root)
        assert supervisor.heartbeat_age_s("ghost") is None

    def test_fresh_beat_is_young(self, tmp_path):
        queue = _queue_with_manifest(tmp_path)
        supervisor = WorkerSupervisor(queue.root)
        queue.heartbeat("w0", 0)
        age = supervisor.heartbeat_age_s("w0")
        assert age is not None
        assert age < 5.0


class TestRespawnBackoff:
    def _supervisor(self, tmp_path, **overrides):
        queue = _queue_with_manifest(tmp_path)
        kwargs = dict(n_workers=1, max_respawns=3, backoff_s=0.5)
        kwargs.update(overrides)
        supervisor = WorkerSupervisor(queue.root, **kwargs)
        supervisor.spawn_calls = 0

        def _fake_spawn(slot):
            supervisor.spawn_calls += 1
            supervisor.stats["spawned"] += 1
            slot.proc = _FakeProc(alive=False)  # crashes immediately

        supervisor._spawn = _fake_spawn
        return supervisor

    def test_backoff_doubles_between_respawns(self, tmp_path):
        supervisor = self._supervisor(tmp_path)
        slot = supervisor._slots[0]
        slot.proc = _FakeProc(alive=False)

        supervisor._respawn(slot, now=100.0)
        assert supervisor.spawn_calls == 1
        assert slot.retry_at == pytest.approx(100.5)

        # Still inside the backoff window: no spawn.
        supervisor._respawn(slot, now=100.4)
        assert supervisor.spawn_calls == 1

        supervisor._respawn(slot, now=100.6)
        assert supervisor.spawn_calls == 2
        assert slot.retry_at == pytest.approx(100.6 + 1.0)

        supervisor._respawn(slot, now=102.0)
        assert supervisor.spawn_calls == 3
        assert slot.retry_at == pytest.approx(102.0 + 2.0)

    def test_respawn_cap_stops_the_fork_bomb(self, tmp_path):
        supervisor = self._supervisor(tmp_path, max_respawns=2)
        slot = supervisor._slots[0]
        slot.proc = _FakeProc(alive=False)
        now = 0.0
        for _ in range(10):
            supervisor._respawn(slot, now)
            now += 100.0  # always past any backoff window
        assert supervisor.spawn_calls == 2
        assert supervisor.stats["respawned"] == 2

    def test_poll_respawns_dead_slot(self, tmp_path):
        supervisor = self._supervisor(tmp_path)
        slot = supervisor._slots[0]
        slot.proc = _FakeProc(alive=False)
        supervisor.poll()
        assert supervisor.spawn_calls == 1
        assert supervisor.stats["respawned"] == 1

    def test_spent_budget_ends_the_fleet(self, tmp_path):
        supervisor = self._supervisor(tmp_path, max_respawns=1)
        slot = supervisor._slots[0]
        slot.proc = _FakeProc(alive=False)
        assert supervisor.poll()  # the one respawn
        assert not supervisor.poll()  # crashed again, budget spent
        assert supervisor.spent()
        assert supervisor.spawn_calls == 1


class TestCleanExit:
    def _supervisor(self, tmp_path, chunks):
        queue = _queue_with_manifest(tmp_path, chunks=chunks)
        supervisor = WorkerSupervisor(queue.root, n_workers=1)
        spawned = []
        supervisor._spawn = lambda slot: spawned.append(slot)
        slot = supervisor._slots[0]
        slot.worker_id = "w0"
        slot.proc = _FakeProc(alive=False, code=0)
        return supervisor, spawned

    def test_idle_exit_with_no_work_is_final(self, tmp_path):
        supervisor, spawned = self._supervisor(tmp_path, chunks=[])
        assert not supervisor.poll()
        assert spawned == []
        assert not supervisor.spent()

    def test_clean_exit_respawns_while_chunks_wait(self, tmp_path):
        supervisor, spawned = self._supervisor(tmp_path, chunks=[1])
        assert supervisor.poll()
        assert len(spawned) == 1
        assert supervisor.stats["respawned"] == 1
        # Not a crash: the respawn budget is untouched.
        assert supervisor._slots[0].respawns == 0


class TestFreezeDetection:
    def test_silent_worker_is_killed_and_respawned(self, tmp_path):
        queue = _queue_with_manifest(tmp_path)
        supervisor = WorkerSupervisor(
            queue.root, n_workers=1, heartbeat_timeout_s=1.0
        )
        slot = supervisor._slots[0]
        slot.worker_id = "w0"
        frozen = _FakeProc(alive=True)
        slot.proc = frozen

        respawned = []
        supervisor._spawn = lambda s: respawned.append(s.worker_id)

        # A beat, backdated far past the timeout: alive but silent.
        queue.heartbeat(slot.worker_id, 0)
        path = queue.directory(WORKERS) / f"{slot.worker_id}.json"
        stale = time.time() - 60.0
        os.utime(path, (stale, stale))

        supervisor.poll()
        assert frozen.killed
        assert supervisor.stats["killed_frozen"] == 1
        assert respawned == [slot.worker_id]

    def test_beating_worker_is_left_alone(self, tmp_path):
        queue = _queue_with_manifest(tmp_path)
        supervisor = WorkerSupervisor(
            queue.root, n_workers=1, heartbeat_timeout_s=1.0
        )
        slot = supervisor._slots[0]
        slot.worker_id = "w0"
        healthy = _FakeProc(alive=True)
        slot.proc = healthy
        queue.heartbeat(slot.worker_id, 0)

        supervisor.poll()
        assert not healthy.killed
        assert supervisor.stats["killed_frozen"] == 0


class TestRealFleet:
    def test_run_exits_when_queue_is_done(self, tmp_path):
        queue = _queue_with_manifest(tmp_path, chunks=[1, 2, 3])
        queue.mark_done("test")
        supervisor = WorkerSupervisor(
            queue.root, n_workers=2, poll_s=0.05, max_idle_s=10.0
        )
        stats = supervisor.run(install_signal_handlers=False)
        assert stats["spawned"] == 2
        assert stats["drained"] is False
        assert supervisor.alive_workers() == 0

    def _run_in_thread(self, supervisor, timeout_s=30.0):
        holder = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                stats=supervisor.run(install_signal_handlers=False)
            ),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=timeout_s)
        try:
            assert not thread.is_alive(), (
                f"run() still looping after {timeout_s}s"
            )
        finally:
            supervisor.request_drain()
            thread.join(timeout=timeout_s)
        return holder["stats"]

    def test_run_returns_once_every_worker_idles_out(self, tmp_path):
        # No chunks, never marked done: each worker exits idle, and with
        # no work left the fleet is over — not a crash to respawn.
        queue = _queue_with_manifest(tmp_path)
        supervisor = WorkerSupervisor(
            queue.root, n_workers=1, max_respawns=2, poll_s=0.05,
            max_idle_s=0.3, worker_poll_s=0.02,
        )
        stats = self._run_in_thread(supervisor, timeout_s=10.0)
        assert stats["spawned"] == 1
        assert stats["respawned"] == 0
        assert stats["spent"] is False
        assert supervisor.alive_workers() == 0

    def test_run_returns_when_crashes_spend_the_budget(self, tmp_path):
        queue = _queue_with_manifest(tmp_path, chunks=[1, 2])
        (queue.root / "task.pkl").write_bytes(b"not a pickle")
        supervisor = WorkerSupervisor(
            queue.root, n_workers=2, max_respawns=1, backoff_s=0.01,
            poll_s=0.02, max_idle_s=5.0,
        )
        stats = self._run_in_thread(supervisor, timeout_s=20.0)
        assert stats["spawned"] == 4
        assert stats["respawned"] == 2
        assert stats["spent"] is True
        assert all(proc.returncode == 1 for proc in supervisor.procs)

    def test_drain_stops_idle_workers_gracefully(self, tmp_path):
        queue = _queue_with_manifest(tmp_path)  # no chunks: idle fleet
        supervisor = WorkerSupervisor(
            queue.root,
            n_workers=2,
            poll_s=0.05,
            max_idle_s=60.0,
            worker_poll_s=0.02,
        )
        supervisor.start()
        try:
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                ages = [
                    supervisor.heartbeat_age_s(slot.worker_id)
                    for slot in supervisor._slots
                ]
                if all(age is not None for age in ages):
                    break
                time.sleep(0.05)
            assert supervisor.alive_workers() == 2
            supervisor.drain(timeout_s=15.0)
            assert supervisor.alive_workers() == 0
            # Graceful SIGTERM drain, not a kill: clean exit codes.
            for slot in supervisor._slots:
                assert slot.proc.returncode == 0
        finally:
            supervisor.drain(timeout_s=5.0)
