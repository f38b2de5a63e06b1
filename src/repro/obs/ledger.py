"""Run ledger: structured JSONL span events for sweep-scale telemetry.

The paper's contribution is the *sweep* — thousands of design points
per exploration — yet PR 3's observability only looked inside one
simulation.  :class:`RunLedger` instruments the pipeline itself: every
:meth:`Sweep.run <repro.core.sweep.Sweep.run>`, explorer invocation and
injection campaign gets a run id and streams append-only JSONL events:

* ``ledger_open`` — once per file, with config+git provenance and an
  environment fingerprint (python, platform, CPU count, numpy);
* ``run_start`` / ``run_end`` — one pair per instrumented invocation;
* ``span_start`` / ``span_end`` — named phases (enumerate, evaluate,
  frontier, map N) with wall durations;
* ``chunk`` — per-chunk worker timings from every executor;
* ``serial`` / ``fallback`` / ``quarantine`` — the resilience
  machinery's decisions, now on the record;
* ``checkpoint`` / ``resume`` — journal interactions, so an
  interrupted-and-resumed sweep reads as one continuous story.

Every event carries a monotonically increasing ``id`` and the ledger's
``run`` id.  Re-opening an existing ledger file *continues* the id
sequence (and emits a ``resume`` event) instead of restarting it, so a
resumed sweep never duplicates ids — ``repro report`` and the tests
rely on that continuity.

The ledger is pure output: it never feeds back into evaluation, and
``ledger=None`` (the default everywhere) costs one ``is not None``
check per call site.  Lines are buffered and flushed at state-changing
events (open/resume/checkpoint/run boundaries), so a crash loses at
most a buffer of chunk timings, never the story's spine.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import uuid
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.tracectx import coerce_trace

#: Event kinds that force a flush to disk when emitted.
FLUSH_KINDS = frozenset(
    {
        "ledger_open",
        "resume",
        "run_start",
        "run_end",
        "checkpoint",
        "fallback",
    }
)


def environment_fingerprint() -> dict:
    """Where this run happened: interpreter, platform, CPUs, numpy."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is normally present
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "argv": list(sys.argv),
    }


def git_provenance(cwd: str | Path | None = None) -> dict:
    """Best-effort git commit/dirty state (empty outside a checkout).

    Computed once per process and directory: it costs two ``git``
    subprocesses, and every fresh ledger records it.
    """
    base = str(cwd) if cwd is not None else os.getcwd()
    return dict(_git_provenance(base))


@lru_cache(maxsize=None)
def _git_provenance(base: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=base,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=base,
            capture_output=True,
            text=True,
            timeout=5,
            check=True,
        ).stdout
        return {"commit": commit, "dirty": bool(status.strip())}
    except Exception:
        return {}


def _stamp_trace(record: dict, stack: list) -> None:
    """Stamp the innermost bound trace context onto one event record.

    No-op on an empty stack, so a traceless ledger emits byte-identical
    records to the pre-tracing format (pinned by the ledger tests).
    """
    if not stack:
        return
    context = stack[-1]
    record["trace_id"] = context.trace_id
    record["span_id"] = context.span_id
    if context.parent_span_id is not None:
        record["parent_span_id"] = context.parent_span_id


@contextmanager
def _span_context(stack: list):
    """Push a child of the current context for one span's duration."""
    parent = stack[-1] if stack else None
    if parent is not None:
        stack.append(parent.child())
    try:
        yield
    finally:
        if parent is not None:
            stack.pop()


class _Ledger:
    """What both ledgers share: event records, spans and trace binding.

    A record is built here and handed to :meth:`_emit`, the one thing a
    subclass decides: where the record goes.
    """

    def __init__(self, run_id: str, next_id: int, trace) -> None:
        self.run_id = run_id
        self._next_id = next_id
        context = coerce_trace(trace)
        self._trace_stack: list = [] if context is None else [context]

    def event(self, kind: str, **fields) -> int:
        """Emit one event; returns its id (monotonic within the ledger)."""
        if not kind:
            raise ConfigurationError("ledger event kind required")
        event_id = self._next_id
        self._next_id += 1
        record = {
            "id": event_id,
            "t": round(time.time(), 6),
            "run": self.run_id,
            "kind": kind,
        }
        record.update(fields)
        _stamp_trace(record, self._trace_stack)
        self._emit(record)
        return event_id

    def _emit(self, record: dict) -> None:
        raise NotImplementedError

    @contextmanager
    def span(self, name: str, **fields):
        """Named phase: ``span_start``/``span_end`` with wall duration.

        With a trace context bound, the span runs under a fresh child
        context — both span events (and everything emitted inside)
        carry the child's ``span_id``, parented to the enclosing span.
        """
        with _span_context(self._trace_stack):
            start_id = self.event("span_start", name=name, **fields)
            started = time.perf_counter()
            try:
                yield start_id
            finally:
                self.event(
                    "span_end",
                    name=name,
                    span=start_id,
                    s=round(time.perf_counter() - started, 6),
                )

    # -- trace context -------------------------------------------------------

    @property
    def trace_context(self):
        """The innermost bound :class:`TraceContext`, or None."""
        return self._trace_stack[-1] if self._trace_stack else None

    @contextmanager
    def bind_trace(self, context):
        """Bind ``context`` (context/dict/None) for the enclosed block."""
        context = coerce_trace(context)
        if context is None:
            yield None
            return
        self._trace_stack.append(context)
        try:
            yield context
        finally:
            self._trace_stack.pop()

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class RunLedger(_Ledger):
    """Append-only JSONL event stream for one (or one resumed) run.

    Opening a path that already holds a ledger *continues* it: the run
    id and the event-id sequence carry on from the existing tail and a
    ``resume`` event marks the seam.  Opening a fresh path writes the
    ``ledger_open`` provenance event first.

    Attributes:
        path: The JSONL file.
        run_id: Stable id stamped on every event (inherited on resume).
        resumed: Whether this ledger continued an existing file.
    """

    def __init__(self, path: str | Path, trace=None) -> None:
        self.path = Path(path)
        self._handle = None
        self._unflushed = 0
        self._needs_newline = False
        self.resumed = False
        run_id = None
        next_id = 0
        if self.path.exists() and self.path.stat().st_size > 0:
            run_id, next_id = self._scan_existing()
            self.resumed = True
        super().__init__(run_id or uuid.uuid4().hex[:12], next_id, trace)
        if self.resumed:
            self.event("resume", prior_events=next_id)
        else:
            self.event(
                "ledger_open",
                environment=environment_fingerprint(),
                git=git_provenance(),
            )

    def _scan_existing(self) -> tuple:
        """Recover (run_id, next_event_id) from an existing ledger."""
        run_id = None
        max_id = -1
        line = ""
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from an interrupted run
                if run_id is None:
                    run_id = record.get("run")
                event_id = record.get("id")
                if isinstance(event_id, int) and event_id > max_id:
                    max_id = event_id
        # A writer killed mid-line leaves no trailing newline; appending
        # straight after it would corrupt the next event too.
        self._needs_newline = bool(line) and not line.endswith("\n")
        return run_id, max_id + 1

    def _emit(self, record: dict) -> None:
        handle = self._open()
        handle.write(json.dumps(record, default=str) + "\n")
        self._unflushed += 1
        if record["kind"] in FLUSH_KINDS or self._unflushed >= 128:
            self.flush()

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._unflushed = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
            if self._needs_newline:
                self._handle.write("\n")
                self._needs_newline = False
        return self._handle


class MemoryLedger(_Ledger):
    """In-memory event sink (no file, no provenance).

    Records have :class:`RunLedger`'s shape but are appended to
    :attr:`events` instead of written as JSONL.  The exploration service
    taps one per job so ledger events double as the server-sent event
    stream; an optional ``subscriber`` callable sees each record as it
    is emitted.

    Records are plain dicts and :attr:`events` is append-only, so a
    reader holding an index can poll for new events without locking
    (CPython list appends are atomic).
    """

    def __init__(
        self, run_id: str = "mem", subscriber=None, trace=None
    ) -> None:
        super().__init__(run_id, 0, trace)
        self.events: list = []
        self._subscriber = subscriber

    def _emit(self, record: dict) -> None:
        self.events.append(record)
        if self._subscriber is not None:
            self._subscriber(record)


def coerce_ledger(ledger) -> tuple:
    """Normalize a ``ledger=`` argument to ``(ledger | None, owned)``.

    Callers accept ``None`` (off), a path (the common case — the callee
    opens and closes it), or an open :class:`RunLedger` or
    :class:`MemoryLedger` (shared across several invocations, or read
    after the run: never owned, the caller keeps it).
    """
    if ledger is None:
        return None, False
    if isinstance(ledger, _Ledger):
        return ledger, False
    if isinstance(ledger, (str, Path)):
        return RunLedger(ledger), True
    raise ConfigurationError(
        f"ledger must be a path, RunLedger or MemoryLedger, "
        f"got {type(ledger).__name__}"
    )
