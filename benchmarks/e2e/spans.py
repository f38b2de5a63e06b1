"""Timing shims, span bookkeeping and per-layer attribution.

The traced run wraps public functions of each layer with a timing shim
installed from this file; nothing in ``src/`` changes.  Every call of a
wrapped function becomes one span, kept in a
:class:`~repro.obs.ledger.MemoryLedger` as ``span_start``/``span_end``
records with trace and parent ids, so the ledger written at exit renders
with ``repro trace --merge --strict``.

A span's self time is its duration minus the durations of its direct
child spans.  Spans nest per thread, so the self times of one thread's
spans add up exactly to the durations of that thread's root spans,
which the workload opens around each timed operation.  The root spans'
own self time is the ``unattributed`` remainder: benchmark bookkeeping
and any layer that has no shim.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

from repro.obs.ledger import MemoryLedger
from repro.obs.tracectx import TraceContext
from workloads import WORKLOADS

#: (span name, module, attribute path) of every wrapped public function.
TARGETS = (
    ("dft.lot", "repro.dft.flow", "TestFlow.run_lot"),
    ("dft.march", "repro.dft.march", "MarchTest.run"),
    ("dft.inject", "repro.dft.flow", "inject_random_faults"),
    ("dft.repair", "repro.dft.flow", "allocate_spares"),
    ("dft.flow", "repro.dft.flow", "TestFlow.process_die"),
    ("sim.run", "repro.sim.simulator", "MemorySystemSimulator.run"),
    ("client.submit", "repro.serve.client", "ServeClient.submit"),
    ("client.wait", "repro.serve.client", "ServeClient.wait"),
    ("client.result", "repro.serve.client", "ServeClient.result_bytes"),
    ("sweep.run", "repro.core.sweep", "Sweep.run"),
    ("store.open", "repro.core.store", "ResultStore.__init__"),
    ("store.put", "repro.core.store", "ResultStore.put"),
    ("store.get", "repro.core.store", "ResultStore.get"),
    ("journal.load", "repro.core.sweep", "SweepJournal.load"),
    ("journal.append", "repro.core.sweep", "SweepJournal.append"),
    ("executor.map", "repro.core.executor", "WorkQueueExecutor.map"),
)


def _after_sim_run(tracer, args, result) -> None:
    simulator = args[0]
    config = simulator.config
    tracer.count("sim.cycles", config.warmup_cycles + config.cycles)
    if simulator.backend_used == "event":
        tracer.count("sim.event_runs")
    if simulator.backend_fallback_reason is not None:
        tracer.count("sim.fallbacks")


#: Counters read off a call's arguments and result after it returns.
AFTER = {"sim.run": _after_sim_run}


class _Frame:
    __slots__ = ("context", "child_s")

    def __init__(self, context: TraceContext) -> None:
        self.context = context
        self.child_s = 0.0


class Tracer:
    """Thread-aware span recorder over an in-memory ledger.

    Workloads open a :meth:`root` span around each timed operation;
    shims open :meth:`span`, which records only inside a root, so layer
    calls made during set-up stay out of the traced wall.
    """

    enabled = True

    def __init__(self) -> None:
        self.ledger = MemoryLedger(run_id="bench-e2e")
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: dict = defaultdict(float)
        #: Root spans opened: one per timed op.
        self.roots = 0
        #: Summed duration of the root spans: the traced wall.
        self.root_s = 0.0
        #: Summed self time of the root spans: the unattributed part.
        self.root_self_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        return self._local.__dict__.setdefault("stack", [])

    def _emit(self, kind: str, **fields) -> int:
        # MemoryLedger hands out event ids unlocked; spans from two
        # threads would otherwise race on them.
        with self._lock:
            return self.ledger.event(kind, **fields)

    def root(self, name: str):
        """Span around one timed operation of the workload."""
        return self._record(name, None)

    def span(self, name: str):
        """Span of one layer call; a no-op outside any root span."""
        stack = self._stack()
        if not stack:
            return nullcontext()
        return self._record(name, stack[-1])

    @contextmanager
    def _record(self, name: str, parent):
        stack = self._stack()
        context = (
            parent.context.child() if parent is not None
            else TraceContext.root()
        )
        ids = context.to_dict()
        start_id = self._emit("span_start", name=name, **ids)
        frame = _Frame(context)
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            self._emit(
                "span_end", name=name, span=start_id,
                s=round(elapsed, 6), **ids,
            )
            own = elapsed - frame.child_s
            with self._lock:
                if parent is None:
                    self.roots += 1
                    self.root_s += elapsed
                    self.root_self_s += own
                else:
                    self.calls[name] += 1
                    parent.child_s += elapsed
                    self.self_s[name] += own
                    self.total_s[name] += elapsed

    def count(self, name: str, n: float = 1) -> None:
        """Add to a counter; like spans, only inside a root span."""
        if not self._stack():
            return
        with self._lock:
            self.counters[name] += n

    def write_ledger(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.ledger.events:
                handle.write(json.dumps(record, default=str) + "\n")


class NullTracer:
    """Tracing off: a root span costs one call and records nothing."""

    enabled = False

    def root(self, name: str):
        return nullcontext()


def _wrap(tracer: Tracer, name: str, original):
    after = AFTER.get(name)

    @functools.wraps(original)
    def shim(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return shim


class Shims:
    """Installs the :data:`TARGETS` shims and puts the originals back.

    A target that no longer exists is recorded in :attr:`missing` by
    span name (its metrics then read ``null``); it never stops the run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: list = []
        self._undo: list = []

    def __enter__(self) -> "Shims":
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attribute, None)
            if original is None:
                self.missing.append(name)
                continue
            setattr(owner, attribute, _wrap(self.tracer, name, original))
            self._undo.append((owner, attribute, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def span_cost_s(samples: int = 5000) -> float:
    """Measured cost of one shim-wrapped call over a bare call."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, "calibration", noop)
    started = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - started
    with tracer.root("calibration"):  # shims record only inside a root
        started = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - started
    return max(0.0, (traced - bare) / samples)


#: Span name -> per-layer self-time share metric (percent of traced wall).
SHARES = {
    "dft.lot": "dft.lot_self_pct",
    "dft.march": "dft.march_pct",
    "dft.inject": "dft.inject_pct",
    "dft.repair": "dft.repair_pct",
    "dft.flow": "dft.flow_self_pct",
    "sim.run": "sim.run_pct",
    "client.submit": "client.submit_pct",
    "client.wait": "client.wait_pct",
    "client.result": "client.result_pct",
    "sweep.run": "sweep.run_self_pct",
    "store.open": "store.open_pct",
    "store.put": "store.put_pct",
    "store.get": "store.get_pct",
    "journal.load": "journal.load_pct",
    "journal.append": "journal.append_pct",
    "executor.map": "executor.map_pct",
}

#: Values a workload reports itself (0 where the layer is idle), first
#: the median normalised op seconds of every workload's phases.
WORKLOAD_LAYER_METRICS = tuple(
    (f"{name}.{phase}_p50_s", "s")
    for name, workload in WORKLOADS.items()
    for phase in workload.phases
) + tuple(
    (f"sim.{level}.ns_per_cycle", "ns") for level in ("low", "mid", "high")
) + tuple(
    (f"controller.{level}.{stat}", unit)
    for level in ("low", "mid", "high")
    for stat, unit in (
        ("requests_completed", "count"),
        ("row_hit_rate", "ratio"),
        ("refreshes", "count"),
    )
) + (
    ("server.job_ms_mean", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.evaluations_per_job", "count"),
    ("serve.transport_protocol_pct", "%"),
)

#: Every per-layer metric, in the order BENCHMARK.json lists them.  All
#: are shares, rates, per-unit counts or medians, so none grows with the
#: number of ops that fit in a run.
LAYER_METRICS = (
    tuple((metric, "%") for metric in SHARES.values())
    + (
        ("dft.ms_per_die", "ms"),
        ("sim.ns_per_cycle", "ns"),
        ("sim.event_share", "ratio"),
        ("sim.fallback_share", "ratio"),
    )
    + WORKLOAD_LAYER_METRICS
    + (
        ("unattributed_pct", "%"),
        ("trace_overhead_ratio", "ratio"),
        ("spans_per_op", "count"),
    )
)


#: Metrics computed from a shim's spans, beyond its share.
DERIVED = {
    "dft.flow": ("dft.ms_per_die",),
    "sim.run": ("sim.ns_per_cycle", "sim.event_share", "sim.fallback_share"),
}


def layer_self_seconds(tracer: Tracer) -> dict:
    """Self seconds per layer span plus ``unattributed`` (the roots')."""
    seconds = dict(tracer.self_s)
    seconds["unattributed"] = tracer.root_self_s
    return seconds


def layer_metrics(tracer: Tracer, missing, extras: dict) -> dict:
    """Every :data:`LAYER_METRICS` value from one traced run.

    ``missing`` names shims that could not be installed (their metrics
    are None); ``extras`` holds the workload-reported values.
    """
    wall = tracer.root_s

    def share(value: float) -> float:
        return 100.0 * value / wall if wall > 0 else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values = {}
    for span, metric in SHARES.items():
        values[metric] = share(tracer.self_s.get(span, 0.0))
    values["dft.ms_per_die"] = 1000.0 * ratio(
        tracer.total_s.get("dft.flow", 0.0), tracer.calls.get("dft.flow", 0)
    )
    runs = tracer.calls.get("sim.run", 0)
    values["sim.ns_per_cycle"] = 1e9 * ratio(
        tracer.total_s.get("sim.run", 0.0),
        tracer.counters.get("sim.cycles", 0),
    )
    values["sim.event_share"] = ratio(
        tracer.counters.get("sim.event_runs", 0), runs
    )
    values["sim.fallback_share"] = ratio(
        tracer.counters.get("sim.fallbacks", 0), runs
    )
    for metric, _ in WORKLOAD_LAYER_METRICS:
        values[metric] = extras.get(metric, 0)
    spans = sum(tracer.calls.values())
    overhead = (spans + tracer.roots) * span_cost_s()
    values["unattributed_pct"] = share(tracer.root_self_s)
    values["trace_overhead_ratio"] = (
        wall / (wall - overhead) if wall > overhead else None
    )
    values["spans_per_op"] = ratio(spans, tracer.roots)
    for name in missing:
        for metric in (SHARES.get(name), *DERIVED.get(name, ())):
            if metric is not None:
                values[metric] = None
    return values
