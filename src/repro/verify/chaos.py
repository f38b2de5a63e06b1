"""Chaos harness: induced failures with asserted invariants.

``repro verify chaos`` composes the failure modes the resilience layer
claims to survive — killed workers, frozen workers, torn queue files
and deadline-cancelled jobs — and asserts the invariants that make
those claims true:

* no accepted job is lost: every submitted item produces exactly one
  outcome;
* completed results are bit-identical to an undisturbed serial run
  (fingerprint comparison — crash recovery must not change answers);
* a cancelled job frees its executor thread, journals its partial
  progress and never reaches the result cache.

Scenarios are seeded and self-contained (each builds its own queue
directory or in-process service) and write one JSONL *chaos ledger*
record apiece, so CI can archive exactly what was induced and what
survived.  Profiles: ``smoke`` (kill + deadline cancel, fast enough
for a CI gate) and ``full`` (everything).

The worker-facing evaluation functions live at module level because
work-queue tasks are pickled by reference (``module.qualname``) — see
:meth:`~repro.core.executor.WorkQueue.write_task`.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

#: Scenario registry: name -> callable(seed, tmp_dir) -> ScenarioResult.
_SCENARIOS: dict = {}

PROFILES = {
    "smoke": ("kill_worker", "deadline_cancel"),
    "full": (
        "kill_worker",
        "freeze_worker",
        "torn_files",
        "deadline_cancel",
    ),
}


@dataclass
class ScenarioResult:
    """One scenario's verdict: what was induced, what held."""

    name: str
    ok: bool
    elapsed_s: float
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def record(self) -> dict:
        return {
            "kind": "scenario",
            "name": self.name,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "details": self.details,
            "failures": self.failures,
        }


@dataclass
class ChaosReport:
    """All scenario results plus the ledger they were written to."""

    profile: str
    seed: int
    results: list = field(default_factory=list)
    ledger_path: str | None = None

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def summary(self) -> str:
        passed = sum(1 for result in self.results if result.ok)
        lines = [
            f"chaos [{self.profile}] seed={self.seed}: "
            f"{passed}/{len(self.results)} scenarios survived"
        ]
        for result in self.results:
            verdict = "ok" if result.ok else "FAILED"
            lines.append(
                f"  {result.name}: {verdict} ({result.elapsed_s:.2f}s)"
            )
            for failure in result.failures:
                lines.append(f"    - {failure}")
        return "\n".join(lines)


def scenario(name: str):
    def decorate(fn):
        _SCENARIOS[name] = fn
        return fn

    return decorate


def scenario_names() -> list:
    return sorted(_SCENARIOS)


class _Check:
    """Collects invariant failures instead of stopping at the first."""

    def __init__(self) -> None:
        self.failures: list = []

    def that(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


# -- worker-side evaluation functions (pickled by reference) -----------------


def chaos_sim_point(seed: int) -> tuple:
    """One seeded simulation fingerprint, slowed enough that a chaos
    scenario can reliably interfere mid-run."""
    from repro.serve.workloads import sim_fingerprint

    time.sleep(0.05)
    return sim_fingerprint(seed=seed, cycles=400)


def chaos_slow(x: float = 0.0, delay_s: float = 0.02) -> dict:
    """Service workload that takes real wall time per point."""
    time.sleep(delay_s)
    return {"x": x, "delay_s": delay_s}


def _baseline(seeds: list) -> list:
    """The undisturbed answer every disturbed run must reproduce."""
    from repro.serve.workloads import sim_fingerprint

    return [sim_fingerprint(seed=seed, cycles=400) for seed in seeds]


def _first_result(queue, n_chunks: int, timeout_s: float) -> bool:
    """Wait until at least one chunk result lands."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if any(
            queue.read_result(index) is not None
            for index in range(n_chunks)
        ):
            return True
        time.sleep(0.02)
    return False


def _unfinished_leases(queue) -> int:
    """Chunks leased in ``queue`` whose result has not landed yet."""
    from repro.core.executor import LEASES, RESULTS

    try:
        names = os.listdir(queue.directory(LEASES))
    except OSError:
        return 0  # no layout yet, or reset by a starting map
    results = queue.directory(RESULTS)
    return sum(1 for name in names if not (results / name).exists())


def kill_worker_holding_lease(executor, timeout_s: float = 30.0):
    """SIGKILL the executor's first live worker while it holds a lease
    whose chunk is unfinished; returns its pid, or None if that never
    held within ``timeout_s``.

    The worker is frozen (SIGSTOP) before ``leases/`` is counted, so it
    cannot finish or release its chunk between the check and the kill;
    otherwise it is thawed and the check retried.  A live worker holds
    at most one lease, so once the unfinished leases number at least
    the live workers, the frozen one holds one.  Its chunk then cannot
    complete until that lease expires, the coordinator requeues it
    (counted in ``executor.stats["requeued"]``) and another worker
    claims it.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        live = [proc for proc in executor.fleet.procs if proc.poll() is None]
        if live:
            victim = live[0]
            victim.send_signal(signal.SIGSTOP)
            if _unfinished_leases(executor.queue) >= len(live):
                victim.kill()
                return victim.pid
            victim.send_signal(signal.SIGCONT)
        time.sleep(0.005)
    return None


# -- scenarios ---------------------------------------------------------------


@scenario("kill_worker")
def _kill_worker(seed: int, tmp_dir: Path) -> ScenarioResult:
    """SIGKILL a worker mid-map; the respawn + lease-steal path must
    deliver every outcome bit-identically — and the distributed trace
    must still merge without orphan parents, because the stolen chunk
    re-emits its span under the same shipped context."""
    from repro.core.executor import WorkQueueExecutor
    from repro.obs.ledger import RunLedger
    from repro.obs.tracectx import TraceContext
    from repro.obs.tracemerge import load_trace_file, orphan_parents

    check = _Check()
    seeds = [seed + index for index in range(8)]
    expected = _baseline(seeds)
    executor = WorkQueueExecutor(
        tmp_dir / "queue",
        workers=1,
        chunk_size=1,
        lease_timeout_s=1.0,
        poll_s=0.02,
        timeout_s=120.0,
    )
    coordinator_ledger_path = tmp_dir / "coordinator.jsonl"
    ledger = RunLedger(coordinator_ledger_path, trace=TraceContext.root())
    start = time.perf_counter()
    outcomes: list = []
    errors: list = []

    def run_map() -> None:
        try:
            outcomes.extend(
                executor.map(chaos_sim_point, seeds, ledger=ledger)
            )
        except Exception as error:  # noqa: BLE001 - reported as a failure
            errors.append(error)

    thread = threading.Thread(target=run_map)
    thread.start()
    try:
        # Kill the (only) worker once it has proven it is mid-run.
        killed = False
        if _first_result(executor.queue, len(seeds), timeout_s=30.0):
            procs = executor.fleet.procs
            if procs and procs[0].poll() is None:
                procs[0].kill()
                killed = True
        thread.join(timeout=120.0)
    finally:
        worker_ledgers = sorted(
            (executor.queue.root / "ledgers").glob("*.jsonl")
        )
        executor.close()
        ledger.close()
    check.that(killed, "never got to kill a worker mid-run")
    check.that(not errors, f"map raised: {errors!r}")
    check.that(not thread.is_alive(), "map did not finish after the kill")
    check.that(
        [o.value for o in outcomes if o.ok] == expected
        and all(o.ok for o in outcomes),
        "outcomes differ from the undisturbed serial baseline",
    )
    # Even with a worker SIGKILL'd mid-chunk, the per-process ledgers
    # must stitch into one tree: every parent_span_id referenced by a
    # surviving span resolves somewhere in the merged record set.
    check.that(
        len(worker_ledgers) >= 1,
        "traced map left no worker ledgers behind",
    )
    event_lists = [
        load_trace_file(path)[1]
        for path in [coordinator_ledger_path, *worker_ledgers]
    ]
    orphans = orphan_parents(event_lists)
    check.that(
        not orphans,
        f"merged trace has orphan parent spans: {sorted(orphans)}",
    )
    trace_ids = {
        event.get("trace_id")
        for events in event_lists
        for event in events
        if event.get("trace_id")
    }
    check.that(
        len(trace_ids) == 1,
        f"expected one trace id across all ledgers, saw {len(trace_ids)}",
    )
    return ScenarioResult(
        name="kill_worker",
        ok=not check.failures,
        elapsed_s=time.perf_counter() - start,
        details={
            "items": len(seeds),
            "requeued": executor.stats["requeued"],
            "respawns": executor.fleet.stats["respawned"],
            "worker_ledgers": len(worker_ledgers),
            "orphan_parents": len(orphans),
        },
        failures=check.failures,
    )


@scenario("freeze_worker")
def _freeze_worker(seed: int, tmp_dir: Path) -> ScenarioResult:
    """SIGSTOP one of two workers; once the coordinator requeues its
    expired lease the sibling must take the chunk over, and the answers
    must not change."""
    from repro.core.executor import WorkQueueExecutor

    check = _Check()
    seeds = [seed + 100 + index for index in range(8)]
    expected = _baseline(seeds)
    executor = WorkQueueExecutor(
        tmp_dir / "queue",
        workers=2,
        chunk_size=1,
        lease_timeout_s=1.0,
        poll_s=0.02,
        timeout_s=120.0,
    )
    start = time.perf_counter()
    outcomes: list = []
    errors: list = []

    def run_map() -> None:
        try:
            outcomes.extend(executor.map(chaos_sim_point, seeds))
        except Exception as error:  # noqa: BLE001 - reported as a failure
            errors.append(error)

    thread = threading.Thread(target=run_map)
    thread.start()
    frozen_pid = None
    try:
        if _first_result(executor.queue, len(seeds), timeout_s=30.0):
            procs = executor.fleet.procs
            if procs and procs[0].poll() is None:
                frozen_pid = procs[0].pid
                os.kill(frozen_pid, signal.SIGSTOP)
        thread.join(timeout=120.0)
    finally:
        if frozen_pid is not None:
            # Thaw before close() so its SIGTERM drain is prompt.
            try:
                os.kill(frozen_pid, signal.SIGCONT)
            except OSError:
                pass
        executor.close()
    check.that(frozen_pid is not None, "never got to freeze a worker")
    check.that(not errors, f"map raised: {errors!r}")
    check.that(not thread.is_alive(), "map did not finish past the freeze")
    check.that(
        [o.value for o in outcomes if o.ok] == expected
        and all(o.ok for o in outcomes),
        "outcomes differ from the undisturbed serial baseline",
    )
    return ScenarioResult(
        name="freeze_worker",
        ok=not check.failures,
        elapsed_s=time.perf_counter() - start,
        details={
            "items": len(seeds),
            "requeued": executor.stats["requeued"],
        },
        failures=check.failures,
    )


@scenario("torn_files")
def _torn_files(seed: int, tmp_dir: Path) -> ScenarioResult:
    """Pre-torn result and segment files must be tolerated: garbage is
    skipped or overwritten, valid store records are honored."""
    from repro.core.executor import (
        MANIFEST,
        RESULTS,
        SEGMENTS,
        WorkQueue,
        atomic_write_json,
        chunk_file_name,
    )
    from repro.core.parallel import PointOutcome
    from repro.core.store import decode_outcome, encode_outcome
    from repro.core.worker import worker_loop

    check = _Check()
    seeds = [seed + 200 + index for index in range(4)]
    expected = _baseline(seeds)
    keys = [f"chaos-k{index}" for index in range(len(seeds))]
    start = time.perf_counter()
    queue = WorkQueue(tmp_dir / "queue")
    queue.reset()
    queue.write_task(chaos_sim_point, catch=())
    for index, seed_value in enumerate(seeds):
        queue.publish_chunk(index, [index], [seed_value], [keys[index]])
    atomic_write_json(
        queue.root / MANIFEST,
        {
            "queue": "chaos-torn",
            "n_chunks": len(seeds),
            "n_items": len(seeds),
            "chunk_size": 1,
            "lease_timeout_s": 5.0,
            "created_t": round(time.time(), 3),
        },
    )
    # Torn result file (half a JSON document, as if a non-atomic
    # writer died): read_result must treat it as absent, and the
    # worker's atomic publish must replace it.
    torn_result = queue.directory(RESULTS) / chunk_file_name(0)
    torn_result.write_text('{"chunk": 0, "outco', encoding="utf-8")
    check.that(
        queue.read_result(0) is None,
        "torn result file was not treated as absent",
    )
    # Dead worker's segment: one valid record (item 0, the correct
    # answer) followed by a torn tail — the snapshot must serve the
    # record and skip the garbage.
    segment = queue.directory(SEGMENTS) / "segment-chaos-dead.jsonl"
    valid = json.dumps(
        {
            "fingerprint": keys[0],
            "result": encode_outcome(
                PointOutcome(ok=True, value=expected[0])
            ),
        }
    )
    segment.write_text(valid + "\n" + '{"fingerprint": "chaos', "utf-8")
    snapshot = queue.load_segment_snapshot()
    check.that(
        list(snapshot) == [keys[0]],
        f"segment snapshot parsed {sorted(snapshot)}, "
        f"wanted only {keys[0]!r}",
    )
    # Drive an in-process worker one chunk at a time until done.
    for _ in seeds:
        worker_loop(
            queue.root, worker_id="chaos-torn-w", once=True, max_idle_s=5.0
        )
    merged: dict = {}
    stored_sources = 0
    for index in range(len(seeds)):
        result = queue.read_result(index)
        check.that(
            result is not None, f"chunk {index} never produced a result"
        )
        if result is None:
            continue
        stored_sources += result["sources"].count("store")
        for item_index, text in zip(result["indices"], result["outcomes"]):
            merged[item_index] = decode_outcome(text)
    values = [
        merged[index].value
        for index in range(len(seeds))
        if index in merged and merged[index].ok
    ]
    check.that(
        values == expected,
        "recovered outcomes differ from the undisturbed baseline",
    )
    check.that(
        stored_sources == 1,
        f"expected exactly the pre-seeded point served from the "
        f"segment store, saw {stored_sources}",
    )
    return ScenarioResult(
        name="torn_files",
        ok=not check.failures,
        elapsed_s=time.perf_counter() - start,
        details={"items": len(seeds), "store_served": stored_sources},
        failures=check.failures,
    )


@scenario("deadline_cancel")
def _deadline_cancel(seed: int, tmp_dir: Path) -> ScenarioResult:
    """A job that cannot meet its deadline must reach ``cancelled``,
    journal its partial progress, free capacity, and leave the result
    cache untouched."""
    from repro.serve.testing import in_process_service
    from repro.serve.workloads import register_workload, unregister_workload

    check = _Check()
    start = time.perf_counter()
    journal_dir = tmp_dir / "journals"
    register_workload("chaos_slow", chaos_slow, replace=True)
    try:
        with in_process_service(
            max_workers=2,
            journal_dir=journal_dir,
        ) as (service, client):
            doomed = {
                "kind": "sweep",
                "workload": "chaos_slow",
                "axes": {"x": [float(seed + i) for i in range(100)]},
                "deadline_s": 0.3,
            }
            submitted = client.submit(doomed)
            fingerprint = submitted["fingerprint"]
            final = client.wait(submitted["job_id"], timeout_s=30.0)
            check.that(
                final["status"] == "cancelled",
                f"expected terminal 'cancelled', got {final['status']!r}",
            )
            error = final.get("error") or {}
            check.that(
                error.get("code") == "cancelled"
                and "deadline" in error.get("message", ""),
                f"cancelled envelope missing deadline reason: {error!r}",
            )
            check.that(
                service.cache.get(fingerprint) is None,
                "cancelled (partial) result leaked into the cache",
            )
            journal = journal_dir / f"{fingerprint}.jsonl"
            check.that(
                journal.exists() and journal.stat().st_size > 0,
                "no resumable journal left behind for the partial",
            )
            in_flight = client.stats()["in_flight"]
            check.that(
                in_flight == 0,
                f"capacity not freed after cancel: {in_flight} in flight",
            )
            # Freed capacity is usable: a quick job completes.
            quick = client.run(
                {
                    "kind": "sweep",
                    "workload": "chaos_slow",
                    "axes": {"x": [float(seed)], "delay_s": [0.0]},
                },
                timeout_s=30.0,
            )
            check.that(
                quick["result"]["n_ok"] == 1,
                "follow-up job did not complete after the cancel",
            )
            stats = client.stats()
            check.that(
                stats["cancelled"] == 1,
                f"cancelled counter {stats['cancelled']} != 1",
            )
    finally:
        unregister_workload("chaos_slow")
    return ScenarioResult(
        name="deadline_cancel",
        ok=not check.failures,
        elapsed_s=time.perf_counter() - start,
        details={},
        failures=check.failures,
    )


# -- driver ------------------------------------------------------------------


def run_chaos(
    profile: str = "smoke",
    seed: int = 0,
    scenarios: list | None = None,
    out=None,
    tmp_dir=None,
) -> ChaosReport:
    """Run a chaos profile (or explicit scenario list); returns the
    report, writing the JSONL chaos ledger to ``out`` when given."""
    import tempfile

    if scenarios:
        names = list(scenarios)
    else:
        try:
            names = list(PROFILES[profile])
        except KeyError:
            raise ConfigurationError(
                f"unknown chaos profile {profile!r}; "
                f"choose from {sorted(PROFILES)}"
            ) from None
    unknown = [name for name in names if name not in _SCENARIOS]
    if unknown:
        raise ConfigurationError(
            f"unknown chaos scenario(s) {unknown}; "
            f"available: {scenario_names()}"
        )
    report = ChaosReport(profile=profile, seed=seed)
    records = [
        {
            "kind": "chaos",
            "profile": profile,
            "seed": seed,
            "scenarios": names,
            "t": round(time.time(), 3),
        }
    ]
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        base = Path(tmp_dir) if tmp_dir is not None else Path(scratch)
        for name in names:
            scenario_dir = base / name
            scenario_dir.mkdir(parents=True, exist_ok=True)
            try:
                result = _SCENARIOS[name](seed, scenario_dir)
            except Exception as error:  # noqa: BLE001 - a crash is a verdict
                result = ScenarioResult(
                    name=name,
                    ok=False,
                    elapsed_s=0.0,
                    failures=[
                        f"scenario crashed: {type(error).__name__}: {error}"
                    ],
                )
            report.results.append(result)
            records.append(result.record())
    records.append(
        {
            "kind": "summary",
            "ok": report.ok,
            "passed": sum(1 for r in report.results if r.ok),
            "failed": sum(1 for r in report.results if not r.ok),
        }
    )
    if out is not None:
        out_path = Path(out)
        if out_path.parent != Path("."):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        report.ledger_path = str(out_path)
    return report
