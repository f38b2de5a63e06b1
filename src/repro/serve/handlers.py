"""The exploration service: job lifecycle, execution, routing.

:class:`ExplorationService` is deliberately synchronous — jobs run on a
:class:`~concurrent.futures.ThreadPoolExecutor`, state is guarded by
plain locks — and the asyncio HTTP layer (:mod:`repro.serve.server`)
is a thin wrapper over it.  That split buys the test layer its
strongest property: :func:`route` dispatches method+path+body to the
service exactly once for *both* the real socket server and the
in-process test client, so contract tests pin the wire behavior
without opening a socket.

Execution path per job::

    submit -> cache.get(fingerprint)   -- hit: done instantly, cached=True
           -> coalescer.admit          -- in flight: follow the primary
           -> executor.submit          -- cold: queue it and run it

Only a *cold primary* occupies an executor thread, and every valid
cold submission is queued for one: none is refused.  Cache hits and
coalesced followers never touch the executor, so once every cold run
has succeeded ``submitted == executions + cache_hits + coalesced``.

Every cold primary carries a :class:`~repro.serve.resilience.CancelToken`
(armed with the job's optional ``deadline_s``).  ``POST
/v1/jobs/<id>/cancel`` or a lapsed deadline flips it; the sweep /
parallel / executor chunk boundaries and the simulator watchdog
observe it and unwind with :class:`~repro.errors.CancelledError`.  A
cancelled job reaches the terminal ``cancelled`` state, frees its
executor thread, journals partial progress (resumable via the service's
``journal_dir``), and never touches the result cache.

A cold run wires a :class:`~repro.obs.ledger.MemoryLedger` and a
callback-only :class:`~repro.obs.progress.ProgressReporter` into the
existing ``Sweep.run`` / ``DesignSpaceExplorer.explore`` machinery, so
the job's event stream *is* the ledger the batch tooling already
emits.  The result document is serialized once, canonically, and the
cache stores that text.  The result endpoint decodes the stored text and
the transport re-encodes the envelope, so the served bytes are not the
stored ones; a cold, warm or coalesced request for one job still gets
identical bytes, because each decodes equal text and takes the same
encode.

The evaluation-count probe: ``stats["evaluations"]`` counts the points
a cold run actually evaluated — for a sweep, the summed ``size`` of the
``chunk`` events on its job ledger, the same on the serial and pool
paths and for cancelled runs, so journal-resumed points are never
credited — plus explored points; tests assert a warm hit leaves it
untouched.
"""

from __future__ import annotations

import itertools
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CancelledError, ConfigurationError, ReproError
from repro.obs.ledger import MemoryLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressReporter
from repro.obs.tracectx import TraceContext
from repro.serve.cache import ResultCache
from repro.serve.coalescer import RequestCoalescer
from repro.serve.resilience import CancelToken
from repro.serve.protocol import (
    RequestError,
    SCHEMA_VERSION,
    canonical_json,
    error_envelope,
    ok_envelope,
    parse_job,
)

#: Longest the status endpoint's ``wait_s`` query may block.
MAX_WAIT_S = 60.0


def _metrics_document(metrics) -> dict:
    """A SolutionMetrics as a plain JSON-able dict."""
    import dataclasses

    return dataclasses.asdict(metrics)


@dataclass
class JobRecord:
    """One submitted job's full lifecycle state."""

    job_id: str
    spec: object
    fingerprint: str
    status: str = "queued"  # queued | running | done | failed | cancelled
    cached: bool = False
    coalesced_with: str | None = None
    result_text: str | None = None
    error: dict | None = None
    progress: dict | None = None
    events: list = field(default_factory=list)
    followers: list = field(default_factory=list)
    done_event: threading.Event = field(default_factory=threading.Event)
    done_callbacks: list = field(default_factory=list)
    cancel_token: CancelToken | None = None
    trace: TraceContext | None = None

    @property
    def finished(self) -> bool:
        return self.status in ("done", "failed", "cancelled")


class ExplorationService:
    """Executes validated jobs with caching and coalescing.

    Attributes:
        cache: Content-addressed result store (shared across clients,
            optionally persistent).
        coalescer: In-flight de-duplicator.
        stats: Counters — ``submitted``, ``executions`` (cold runs
            actually performed), ``cache_hits``, ``evaluations``
            (evaluated sweep points + explored points), ``cancelled``
            (jobs reaching the cancelled terminal state), plus
            ``serve.coalesced`` via the coalescer.
        journal_dir: Directory for per-job sweep journals.  When set,
            cold sweep jobs checkpoint per-point results there; a
            cancelled job's journal is kept so a resubmission resumes
            from the completed prefix, a finished job's is deleted
            (the cache owns complete results).
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        max_workers: int = 4,
        max_wait_s: float = MAX_WAIT_S,
        journal_dir=None,
        tracing: bool = True,
    ) -> None:
        if max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.cache = cache if cache is not None else ResultCache()
        self.coalescer = RequestCoalescer()
        self.max_wait_s = max_wait_s
        self.journal_dir = Path(journal_dir) if journal_dir else None
        self.tracing = bool(tracing)
        # Per-instance registry for service telemetry (job latency
        # histograms): it records on job boundaries only, never on a
        # hot evaluation path.
        self.metrics = MetricsRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._lock = threading.Lock()
        # Guards every job's done_callbacks; apart from _lock, which
        # is held where some jobs finish.
        self._callbacks_lock = threading.Lock()
        self._jobs: dict = {}
        self._ids = itertools.count(1)
        self.stats = {
            "submitted": 0,
            "executions": 0,
            "cache_hits": 0,
            "evaluations": 0,
            "cancelled": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ExplorationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(self, payload) -> dict:
        """Validate and accept one job; returns the submit response."""
        spec = parse_job(payload)
        fingerprint = spec.fingerprint()
        with self._lock:
            job = JobRecord(
                job_id=f"job-{next(self._ids)}",
                spec=spec,
                fingerprint=fingerprint,
            )
            cached_text = self.cache.get(fingerprint)
            execute = False
            if cached_text is not None:
                self.stats["cache_hits"] += 1
                job.cached = True
                job.result_text = cached_text
                job.status = "done"
                job.events.append(
                    {"kind": "cache_hit", "fingerprint": fingerprint}
                )
                self._mark_done(job)
            else:
                primary = self.coalescer.admit(fingerprint, job)
                if primary is not None:
                    job.coalesced_with = primary.job_id
                else:
                    job.cancel_token = CancelToken(
                        deadline_s=spec.deadline_s
                    )
                    if self.tracing:
                        # Root of the distributed trace: every ledger
                        # event, work-queue chunk and simulator trace
                        # event this job fans out to carries this
                        # trace_id.  Identity only — never part of the
                        # fingerprint or the result document.
                        job.trace = TraceContext.root()
                    execute = True
            self._jobs[job.job_id] = job
            self.stats["submitted"] += 1
            if execute:
                self._executor.submit(self._execute, job)
        return ok_envelope(
            job_id=job.job_id,
            status=self.status_of(job),
            fingerprint=fingerprint,
            kind=spec.kind,
            cached=job.cached,
            coalesced_with=job.coalesced_with,
        )

    def status_of(self, job: JobRecord) -> str:
        if job.coalesced_with is not None and not job.finished:
            primary = self._jobs.get(job.coalesced_with)
            if primary is not None:
                return primary.status
        return job.status

    @staticmethod
    def _workload_key(spec) -> str:
        """Latency-histogram label: the workload name, or ``explore``."""
        return spec.workload if spec.kind == "sweep" else "explore"

    def cancel_job(self, job_id: str, reason: str = "client_cancel") -> dict:
        """Request cooperative cancellation of a job (idempotent).

        A coalesced follower is detached immediately (the primary and
        its other followers keep running); a cold primary has its
        token flipped and unwinds at the next chunk/watchdog boundary.
        A finished job reports ``cancelled: false`` with its terminal
        status.
        """
        with self._lock:
            job = self._job(job_id)
            if job.finished:
                return ok_envelope(
                    job_id=job.job_id,
                    status=self.status_of(job),
                    cancelled=False,
                )
            if job.coalesced_with is not None:
                job.status = "cancelled"
                job.error = {
                    "code": "cancelled",
                    "message": f"job cancelled ({reason})",
                }
                self._mark_done(job)
                self.stats["cancelled"] += 1
                return ok_envelope(
                    job_id=job.job_id, status="cancelled", cancelled=True
                )
            token = job.cancel_token
        if token is None:
            return ok_envelope(
                job_id=job.job_id,
                status=self.status_of(job),
                cancelled=False,
            )
        token.cancel(reason)
        return ok_envelope(
            job_id=job.job_id, status=self.status_of(job), cancelled=True
        )

    # -- execution -----------------------------------------------------------

    def _count_evaluations(self, n: int = 1) -> None:
        with self._lock:
            self.stats["evaluations"] += n

    def _execute(self, job: JobRecord) -> None:
        key = self._workload_key(job.spec)
        token = job.cancel_token
        started = None
        try:
            if token is not None and token.cancelled:
                # Cancelled (or deadline-expired) while queued behind
                # other jobs — never start the run.
                self._resolve_cancelled(job)
                return
            job.status = "running"
            started = time.perf_counter()
            tap = MemoryLedger(run_id=job.job_id, trace=job.trace)
            job.events = tap.events
            try:
                document = self._run_spec(job, tap)
                text = canonical_json(document)
            except CancelledError:
                self._resolve_cancelled(job)
                return
            except ReproError as error:
                self._resolve(job, error={
                    "code": "evaluation_failed",
                    "message": f"{type(error).__name__}: {error}",
                })
                return
            except Exception as error:  # noqa: BLE001 - jobs must not kill workers
                self._resolve(job, error={
                    "code": "internal_error",
                    "message": f"{type(error).__name__}: {error}",
                })
                return
            self.cache.put(job.fingerprint, text)
            with self._lock:
                self.stats["executions"] += 1
            self._resolve(job, text=text)
        finally:
            if started is not None:
                self.metrics.histogram(f"serve.job_ms.{key}").record(
                    (time.perf_counter() - started) * 1e3
                )

    def _resolve_cancelled(self, job: JobRecord) -> None:
        """Move a cold primary (and its followers) to ``cancelled``.

        The result cache is never touched; a journaled partial stays
        on disk for resumption.
        """
        token = job.cancel_token
        reason = (token.reason if token is not None else None) or "cancelled"
        job.events.append(
            {"kind": "cancelled", "reason": reason, "partial": job.progress}
        )
        with self._lock:
            self.stats["cancelled"] += 1
        self._resolve(
            job,
            error={
                "code": "cancelled",
                "message": f"job cancelled ({reason})",
            },
            status="cancelled",
        )

    def _resolve(
        self,
        job: JobRecord,
        text: str | None = None,
        error=None,
        status: str | None = None,
    ) -> None:
        if status is None:
            status = "done" if error is None else "failed"
        followers = self.coalescer.release(job.fingerprint, job)
        for record in (job, *followers):
            if record.finished:
                continue
            record.result_text = text
            record.error = error
            record.status = status
            self._mark_done(record)

    def _run_spec(self, job: JobRecord, tap: MemoryLedger) -> dict:
        spec = job.spec
        if spec.kind == "sweep":
            return self._run_sweep(job, spec, tap)
        return self._run_explore(spec, tap)

    def _run_sweep(self, job: JobRecord, spec, tap: MemoryLedger) -> dict:
        from repro.core.pareto import pareto_frontier
        from repro.core.sweep import Sweep
        from repro.serve.workloads import get_workload

        def on_progress(reporter: ProgressReporter) -> None:
            job.progress = {
                "done": reporter.done,
                "failed": reporter.failed,
                "total": reporter.total,
            }
            tap.event(
                "progress",
                done=reporter.done,
                failed=reporter.failed,
                total=reporter.total,
            )

        sweep = Sweep(axes=dict(spec.axes))
        executor = None
        if spec.workers >= 2:
            # The `workers:` execution hint fans the sweep across a
            # local process pool.  `workers` is excluded from the job
            # fingerprint: the result document is byte-identical to
            # the serial run's, so both share one cache entry.
            from repro.core.executor import LocalPoolExecutor

            executor = LocalPoolExecutor(workers=spec.workers)
        reporter = ProgressReporter(
            total=sweep.n_points, enabled=False, callback=on_progress
        )
        journal = None
        if self.journal_dir is not None:
            # One journal per fingerprint: a cancelled job leaves its
            # completed prefix behind, and an identical resubmission
            # resumes from it instead of re-evaluating.
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            journal = self.journal_dir / f"{job.fingerprint}.jsonl"
        try:
            outcome = sweep.run(
                get_workload(spec.workload),
                skip_errors=spec.skip_errors,
                ledger=tap,
                progress=reporter,
                executor=executor,
                journal=journal,
                cancel=job.cancel_token,
            )
        finally:
            self._count_evaluations(
                sum(
                    event["size"]
                    for event in tap.events
                    if event["kind"] == "chunk"
                )
            )
        if journal is not None:
            # Complete: the cache owns the canonical result from here.
            try:
                journal.unlink()
            except OSError:
                pass
        points = [
            {"parameters": point.parameters, "result": point.result}
            for point in outcome.points
        ]
        document = {
            "kind": "sweep",
            "schema_version": SCHEMA_VERSION,
            "workload": spec.workload,
            "n_points": sweep.n_points,
            "n_ok": len(outcome.points),
            "n_failed": len(outcome.failures),
            "points": points,
            "failures": [
                {
                    "parameters": failure.parameters,
                    "error": str(failure.error),
                }
                for failure in outcome.failures
            ],
        }
        # Workloads that publish an `objectives` vector get the Pareto
        # pass for free: the frontier over successful points, returned
        # as indices into `points`.
        if points and all(
            isinstance(p["result"], dict) and "objectives" in p["result"]
            for p in points
        ):
            indexed = list(enumerate(points))
            frontier = pareto_frontier(
                indexed,
                objectives=lambda pair: pair[1]["result"]["objectives"],
            )
            document["frontier_indices"] = sorted(
                index for index, _ in frontier
            )
        return document

    def _run_explore(self, spec, tap: MemoryLedger) -> dict:
        from repro.core.explorer import DesignSpaceExplorer

        kwargs = {"batch": spec.backend == "batched"}
        if spec.widths is not None:
            kwargs["widths"] = spec.widths
        if spec.bank_options is not None:
            kwargs["bank_options"] = spec.bank_options
        explorer = DesignSpaceExplorer(**kwargs)
        result = explorer.explore(spec.to_requirements(), ledger=tap)
        self._count_evaluations(result.n_explored)
        return {
            "kind": "explore",
            "schema_version": SCHEMA_VERSION,
            "application": result.requirements.name,
            "backend": spec.backend,
            "n_explored": result.n_explored,
            "n_feasible": len(result.feasible),
            "frontier": [
                _metrics_document(metrics) for metrics in result.frontier
            ],
            "discrete_baseline": (
                _metrics_document(result.discrete_baseline)
                if result.discrete_baseline is not None
                else None
            ),
            "best": (
                {
                    "min_power": result.min_power.label,
                    "min_area": result.min_area.label,
                    "min_cost": result.min_cost.label,
                }
                if result.feasible
                else None
            ),
        }

    # -- queries -------------------------------------------------------------

    def _job(self, job_id: str) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise RequestError(
                f"no such job {job_id!r}", code="not_found", http_status=404
            )
        return job

    def wait(self, job_id: str, timeout_s: float | None = None) -> bool:
        """Block until the job finishes (True) or the timeout lapses."""
        return self._job(job_id).done_event.wait(timeout_s)

    def add_done_callback(self, job_id: str, callback) -> None:
        """Call ``callback()`` once the job finishes, on the thread that
        finishes it, or here and now if it already has."""
        job = self._job(job_id)
        with self._callbacks_lock:
            if not job.done_event.is_set():
                job.done_callbacks.append(callback)
                return
        callback()

    def remove_done_callback(self, job_id: str, callback) -> None:
        """Forget a callback that has not run yet (no-op if it has)."""
        job = self._job(job_id)
        with self._callbacks_lock:
            if callback in job.done_callbacks:
                job.done_callbacks.remove(callback)

    def _mark_done(self, job: JobRecord) -> None:
        """Set the job's ``done_event`` and run each waiting callback
        once."""
        job.done_event.set()
        with self._callbacks_lock:
            callbacks, job.done_callbacks = job.done_callbacks, []
        for callback in callbacks:
            callback()

    def status(self, job_id: str) -> dict:
        job = self._job(job_id)
        return ok_envelope(
            job_id=job.job_id,
            kind=job.spec.kind,
            status=self.status_of(job),
            fingerprint=job.fingerprint,
            cached=job.cached,
            coalesced_with=job.coalesced_with,
            progress=job.progress,
            error=job.error,
        )

    def result_text(self, job_id: str) -> str:
        """The canonical result document text (exact cached bytes)."""
        job = self._job(job_id)
        if not job.finished:
            raise RequestError(
                f"job {job_id} is {self.status_of(job)}; result not ready",
                code="not_ready",
                http_status=409,
            )
        if job.status == "cancelled":
            error = job.error or {}
            raise RequestError(
                error.get("message", "job cancelled"),
                code="cancelled",
                http_status=409,
            )
        if job.status == "failed":
            error = job.error or {}
            raise RequestError(
                error.get("message", "job failed"),
                code=error.get("code", "job_failed"),
                http_status=500,
            )
        return job.result_text

    def result(self, job_id: str) -> dict:
        # The envelope contains nothing job-specific beyond the
        # fingerprint, so identical jobs — cold, warm or coalesced —
        # serialize to identical bytes.
        job = self._job(job_id)
        return ok_envelope(
            fingerprint=job.fingerprint,
            result=json.loads(self.result_text(job_id)),
        )

    def report(self, job_id: str, top: int = 10) -> dict:
        from repro.reporting.runreport import job_report_markdown

        job = self._job(job_id)
        if not job.finished:
            raise RequestError(
                f"job {job_id} is {self.status_of(job)}; report not ready",
                code="not_ready",
                http_status=409,
            )
        events = self.job_events(job)
        trace = job.trace
        if trace is None and job.coalesced_with is not None:
            primary = self._jobs.get(job.coalesced_with)
            if primary is not None:
                trace = primary.trace
        return ok_envelope(
            job_id=job.job_id,
            status=job.status,
            cached=job.cached,
            trace_id=trace.trace_id if trace is not None else None,
            markdown=job_report_markdown(events, top=top),
        )

    def job_events(self, job: JobRecord) -> list:
        """The job's event list (a follower reads its primary's)."""
        if job.coalesced_with is not None:
            primary = self._jobs.get(job.coalesced_with)
            if primary is not None:
                return primary.events
        return job.events

    def events_since(self, job_id: str, cursor: int) -> tuple:
        """``(new events, finished)`` for SSE polling from ``cursor``."""
        job = self._job(job_id)
        events = self.job_events(job)
        return events[cursor:], job.finished

    def stats_document(self) -> dict:
        with self._lock:
            counters = dict(self.stats)
        return ok_envelope(
            jobs=len(self._jobs),
            in_flight=self.coalescer.in_flight,
            coalesced=self.coalescer.coalesced,
            cache=self.cache.stats(),
            **counters,
        )

    def metrics_text(self) -> str:
        """Prometheus exposition of the full service telemetry surface.

        Scrape-time assembly: the per-instance registry contributes the
        job-latency histograms; everything else (in-flight count, cache
        ratio, job counts) is sampled from the live
        snapshots so the gauges can never drift from the actual state.
        Served at ``GET /v1/metrics`` and by ``repro metrics``.
        """
        from repro.obs.expo import render_prometheus

        with self._lock:
            counters = dict(self.stats)
            jobs_by_status: dict = {}
            for job in self._jobs.values():
                status = job.status
                jobs_by_status[status] = jobs_by_status.get(status, 0) + 1
        extra = [
            {
                "name": f"serve.{name}",
                "value": counters[name],
                "type": "counter",
            }
            for name in sorted(counters)
        ]
        for status in sorted(jobs_by_status):
            extra.append(
                {
                    "name": "serve.jobs",
                    "value": jobs_by_status[status],
                    "labels": {"status": status},
                }
            )
        extra.append(
            {"name": "serve.in_flight", "value": self.coalescer.in_flight}
        )
        extra.append(
            {
                "name": "serve.coalesced",
                "value": self.coalescer.coalesced,
                "type": "counter",
            }
        )
        cache = self.cache.stats()
        lookups = cache["hits"] + cache["misses"]
        extra.append(
            {"name": "serve.cache_entries", "value": cache["entries"]}
        )
        extra.append(
            {
                "name": "serve.cache_hit_ratio",
                "value": (cache["hits"] / lookups) if lookups else 0.0,
            }
        )
        return render_prometheus(
            self.metrics.snapshot(),
            extra=extra,
            labels_from={"serve.job_ms": "workload"},
        )


# -- routing -----------------------------------------------------------------

_JOB_PATH = re.compile(
    r"^/v1/jobs/(?P<job_id>[A-Za-z0-9_-]+)"
    r"(?:/(?P<leaf>result|report|events|cancel))?$"
)


def parse_wait_s(query: str) -> float | None:
    """``wait_s`` from a query string, validated and capped."""
    if not query:
        return None
    for part in query.split("&"):
        key, _, raw = part.partition("=")
        if key != "wait_s":
            continue
        try:
            wait_s = float(raw)
        except ValueError:
            raise RequestError(
                f"wait_s must be a number, got {raw!r}"
            ) from None
        if wait_s < 0:
            raise RequestError("wait_s must be >= 0")
        return min(wait_s, MAX_WAIT_S)
    return None


def long_poll(service: ExplorationService, method: str, path: str):
    """``(job_id, wait_s)`` when the request is a status long-poll on an
    unfinished job, else None.

    The socket server awaits such a job on its event loop and then
    routes with ``wait=False``.  A bad ``wait_s`` or an unknown job is
    None here and answered by :func:`route` as usual.
    """
    if method != "GET":
        return None
    path, _, query = path.partition("?")
    match = _JOB_PATH.match(path)
    if match is None or match.group("leaf") is not None:
        return None
    try:
        wait_s = parse_wait_s(query)
        job = service._job(match.group("job_id"))
    except RequestError:
        return None
    if not wait_s or job.done_event.is_set():
        return None
    return job.job_id, wait_s


def route(
    service: ExplorationService,
    method: str,
    path: str,
    body=None,
    *,
    wait: bool = True,
):
    """Dispatch one request; returns ``(http_status, payload dict)``.

    The single entry point shared by the socket server and the
    in-process test client.  ``body`` is the decoded JSON payload (or
    None); JSON decoding errors belong to the transport layer.  A
    status request's ``wait_s`` blocks the calling thread until the job
    finishes; ``wait=False`` answers at once (the socket server, which
    must not block its event loop, has awaited :func:`long_poll`'s job
    itself).
    """
    try:
        return _route(service, method, path, body, wait)
    except RequestError as error:
        return error.http_status, error_envelope(error.code, str(error))


def _route(service, method, path, body, wait):
    path, _, query = path.partition("?")
    if path == "/v1/jobs":
        if method != "POST":
            raise _method_not_allowed(method, path)
        return 200, service.submit(body)
    match = _JOB_PATH.match(path)
    if match is not None:
        job_id = match.group("job_id")
        leaf = match.group("leaf")
        if leaf == "cancel":
            if method != "POST":
                raise _method_not_allowed(method, path)
            return 200, service.cancel_job(job_id)
        if method != "GET":
            raise _method_not_allowed(method, path)
        if leaf is None:
            wait_s = parse_wait_s(query)
            if wait_s is not None and wait:
                service.wait(job_id, wait_s)
            return 200, service.status(job_id)
        if leaf == "result":
            return 200, service.result(job_id)
        if leaf == "report":
            return 200, service.report(job_id)
        # SSE is transport-level; the in-process client polls instead.
        events, finished = service.events_since(job_id, 0)
        return 200, ok_envelope(
            job_id=job_id, events=events, finished=finished
        )
    if path == "/v1/healthz":
        if method != "GET":
            raise _method_not_allowed(method, path)
        return 200, ok_envelope(status="healthy", jobs=len(service._jobs))
    if path == "/v1/stats":
        if method != "GET":
            raise _method_not_allowed(method, path)
        return 200, service.stats_document()
    raise RequestError(
        f"no such endpoint {path!r}", code="not_found", http_status=404
    )


def _method_not_allowed(method: str, path: str) -> RequestError:
    return RequestError(
        f"method {method} not allowed on {path}",
        code="method_not_allowed",
        http_status=405,
    )
