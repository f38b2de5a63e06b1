"""The local worker fleet of the distributed work queue.

:class:`WorkerSupervisor` is the one code path that starts, watches and
stops local queue workers, for both
:class:`~repro.core.executor.WorkQueueExecutor` and ``repro workers
start``.  Each worker is an ``os.fork()`` running
:func:`~repro.core.worker.worker_loop`, logging to
``workers/<worker-id>.log``; every launch gets a fresh worker id, so a
respawn never shares a heartbeat, segment or log with its predecessor.

* **crash** — a nonzero or signal exit is respawned with exponential
  backoff, at most ``max_respawns`` times per slot;
* **clean exit** (idle, done or drained) — respawned only while the
  queue still has pending or leased chunks;
* **freeze** — a live worker whose heartbeat file is older than
  ``heartbeat_timeout_s`` is SIGKILLed, reaped and respawned as a
  crash; lease expiry hands its chunk to a sibling, and its fsync'd
  segment serves the points it already evaluated;
* **drain** — SIGTERM (each worker finishes its chunk, flushes its
  segment and releases its lease), a grace period, then SIGKILL and
  reap for the stragglers.

The supervisor owns *processes*, not work: work distribution stays in
the queue directory protocol, so fleets on several machines and
single ``python -m repro.core.worker`` processes share one queue.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
import time
import uuid

from repro.errors import ConfigurationError
from repro.core.executor import LEASES, PENDING, WORKERS, WorkQueue
from repro.core.worker import worker_loop
from repro.obs.metrics import GLOBAL_METRICS

class ForkedWorker:
    """A :class:`subprocess.Popen`-shaped handle on a forked worker
    (``wait`` raises :class:`TimeoutError`).  Reaping is serialised by
    a lock: one thread may poll while another kills or waits."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None
        self._lock = threading.Lock()

    def poll(self) -> int | None:
        with self._lock:
            if self.returncode is None:
                try:
                    pid, status = os.waitpid(self.pid, os.WNOHANG)
                except ChildProcessError:
                    # Reaped behind our back (SIGCHLD ignored): as
                    # Popen does, report a clean exit.
                    pid, status = self.pid, 0
                if pid == self.pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.001
        while self.poll() is None:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"worker {self.pid} still running after {timeout}s"
                    )
                delay = min(delay, remaining)
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        # A reaped pid may already belong to another process.
        if self.poll() is None:
            os.kill(self.pid, signum)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def _forked_worker_main(log_fd: int, queue_dir, **options):
    """The body of a forked worker; leaves only through ``os._exit``.

    The child is a copy of the supervising process, so nothing of the
    parent's may run twice here: ``os._exit`` skips ``atexit`` handlers
    and the flush of inherited buffered files (an unflushed ledger,
    say), and ``gc.freeze()`` keeps inherited garbage from being
    finalised in the child.
    """
    code = 1
    try:
        gc.freeze()
        # Ctrl-C belongs to the parent, which drains the fleet with
        # SIGTERM.  The fork blocked both; SIGTERM stays blocked until
        # worker_loop has its drain handler in place.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        sys.stdout = sys.stderr = os.fdopen(log_fd, "w", buffering=1)
        # What a fresh interpreter would start with (as the fork-start
        # pool workers in parallel.py do).
        GLOBAL_METRICS.enabled = False
        GLOBAL_METRICS.reset()
        worker_loop(queue_dir, **options)
        code = 0
    except BaseException:
        # Not re-raised: it would unwind into the parent's code.
        import traceback

        traceback.print_exc()  # into the worker's log
    finally:
        os._exit(code)


class _Slot:
    """One worker position: its current process + respawn bookkeeping."""

    __slots__ = ("worker_id", "proc", "respawns", "retry_at")

    def __init__(self) -> None:
        self.worker_id: str | None = None
        self.proc: ForkedWorker | None = None
        self.respawns = 0
        self.retry_at = 0.0


class WorkerSupervisor:
    """Keeps ``n_workers`` forked queue workers alive, unfrozen and
    drainable.

    Attributes:
        stats: Counters — ``spawned`` (all forks), ``respawned``
            (forks replacing an exited worker), ``killed_frozen``
            (live-but-silent workers killed).
    """

    def __init__(
        self,
        queue_dir,
        n_workers: int = 2,
        max_respawns: int = 5,
        backoff_s: float = 0.2,
        heartbeat_timeout_s: float = 10.0,
        poll_s: float = 0.2,
        max_idle_s: float = 30.0,
        worker_poll_s: float = 0.05,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if max_respawns < 0:
            raise ConfigurationError("max_respawns must be >= 0")
        if backoff_s < 0:
            raise ConfigurationError("backoff_s must be >= 0")
        if heartbeat_timeout_s <= 0:
            raise ConfigurationError("heartbeat_timeout_s must be positive")
        if poll_s <= 0:
            raise ConfigurationError("poll_s must be positive")
        self.queue = WorkQueue(queue_dir)
        self.n_workers = n_workers
        self.max_respawns = max_respawns
        self.backoff_s = backoff_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.poll_s = poll_s
        self.max_idle_s = max_idle_s
        self.worker_poll_s = worker_poll_s
        self._slots = [_Slot() for _ in range(n_workers)]
        self._id_prefix = f"{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._drain_requested = False
        self.stats = {"spawned": 0, "respawned": 0, "killed_frozen": 0}

    # -- process management ---------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        """Fork one worker into ``slot`` under a fresh worker id."""
        worker_id = f"{self._id_prefix}-{self.stats['spawned']}"
        workers_dir = self.queue.directory(WORKERS)
        workers_dir.mkdir(parents=True, exist_ok=True)
        log_fd = os.open(
            workers_dir / f"{worker_id}.log",
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            0o644,
        )
        # Whatever sits in these buffers now would otherwise be
        # written once by each process.
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        # A Ctrl-C landing between the fork and the bookkeeping below
        # would orphan the child, and a SIGTERM reaching the child before
        # its drain handler would run the parent's: hold both.
        mask = signal.pthread_sigmask(
            signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM}
        )
        try:
            pid = os.fork()
            if pid == 0:
                _forked_worker_main(
                    log_fd,
                    self.queue.root,
                    worker_id=worker_id,
                    max_idle_s=self.max_idle_s,
                    poll_s=self.worker_poll_s,
                )
            slot.proc = ForkedWorker(pid)
            slot.worker_id = worker_id
            self.stats["spawned"] += 1
        finally:
            os.close(log_fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def start(self) -> None:
        """Fork a worker into every slot not running one, each with a
        fresh respawn budget."""
        for slot in self._slots:
            if slot.proc is None or slot.proc.poll() is not None:
                slot.respawns = 0
                slot.retry_at = 0.0
                self._spawn(slot)

    @property
    def procs(self) -> list:
        """The current process of every started slot, in slot order."""
        return [slot.proc for slot in self._slots if slot.proc is not None]

    def heartbeat_age_s(self, worker_id: str) -> float | None:
        """Seconds since the worker last beat; None = never seen.

        The workers are local forks, so their file mtimes and
        ``time.time()`` share one clock.
        """
        path = self.queue.directory(WORKERS) / f"{worker_id}.json"
        try:
            return max(0.0, time.time() - path.stat().st_mtime)
        except OSError:
            return None

    def _respawn(self, slot: _Slot, now: float) -> None:
        """Replace a crashed worker, within budget and past its backoff."""
        if slot.respawns >= self.max_respawns:
            return
        if now < slot.retry_at:
            return
        slot.respawns += 1
        slot.retry_at = now + self.backoff_s * (2 ** (slot.respawns - 1))
        self._spawn(slot)
        self.stats["respawned"] += 1

    def _queue_has_work(self) -> bool:
        try:
            return any(
                os.listdir(self.queue.directory(name))
                for name in (PENDING, LEASES)
            )
        except OSError:
            return False  # no queue laid out (yet)

    def poll(self) -> bool:
        """One supervision pass: respawn the exited, kill the frozen.

        Returns False once no worker runs and none will be respawned:
        every slot has exited cleanly with no work left in the queue, or
        crashed with its respawn budget spent.
        """
        now = time.monotonic()
        active = False
        for slot in self._slots:
            proc = slot.proc
            if proc is None:
                continue
            code = proc.poll()
            if code is None:
                age = self.heartbeat_age_s(slot.worker_id)
                if age is None or age <= self.heartbeat_timeout_s:
                    active = True
                    continue
                # Alive but silent: SIGSTOP'd, deadlocked, or stuck on
                # I/O.  SIGKILL (a frozen process cannot honor
                # SIGTERM), reap, and respawn it as a crash; the lease
                # protocol recovers its chunk.
                proc.kill()
                proc.wait()
                self.stats["killed_frozen"] += 1
            if code == 0:
                if self._queue_has_work():
                    self._spawn(slot)
                    self.stats["respawned"] += 1
                    active = True
            elif slot.respawns < self.max_respawns:
                self._respawn(slot, now)
                active = True
        return active

    def spent(self) -> bool:
        """Whether some slot's worker crashed with its budget used up."""
        return any(
            slot.respawns >= self.max_respawns
            and slot.proc is not None
            and slot.proc.poll() not in (None, 0)
            for slot in self._slots
        )

    def alive_workers(self) -> int:
        return sum(1 for proc in self.procs if proc.poll() is None)

    # -- drain ----------------------------------------------------------------

    def request_drain(self) -> None:
        self._drain_requested = True

    def drain(self, timeout_s: float = 30.0) -> None:
        """SIGTERM the fleet, wait up to ``timeout_s`` for graceful
        exits, then SIGKILL and reap the stragglers."""
        live = [proc for proc in self.procs if proc.poll() is None]
        for proc in live:
            try:
                proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
        deadline = time.monotonic() + timeout_s
        for proc in live:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except TimeoutError:
                proc.kill()
                proc.wait()

    # -- main loop ------------------------------------------------------------

    def run(self, install_signal_handlers: bool = True) -> dict:
        """Supervise until the queue is done, a drain is requested or
        the fleet has ended (see :meth:`poll`); drain on the way out.

        Returns the final :attr:`stats` plus ``drained`` and ``spent``
        (see :meth:`spent`).  A ``KeyboardInterrupt`` drains the fleet
        and propagates.
        """
        previous = None
        if install_signal_handlers:
            try:
                previous = signal.signal(
                    signal.SIGTERM, lambda signum, frame: self.request_drain()
                )
            except ValueError:
                pass  # not the main thread (tests)
        try:
            self.start()
            while not self._drain_requested and not self.queue.done():
                if not self.poll():
                    break
                time.sleep(self.poll_s)
        finally:
            self.drain()
            if previous is not None:
                signal.signal(signal.SIGTERM, previous)
        return dict(
            self.stats, drained=self._drain_requested, spent=self.spent()
        )
