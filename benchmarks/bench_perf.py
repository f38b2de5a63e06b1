"""Performance benchmark: simulator fast path + design-space sweeps.

Measures the optimized hot paths against their reference
implementations and writes ``BENCH_perf.json``:

* **event_engine** — the simulator's default event-driven backend vs
  the naive per-cycle loop at both load extremes: an E5-style low-load
  run (three clients at rate 0.001, idle cycles dominate) and a
  high-load (client rate 0.6) row-hit-heavy eight-client system where
  almost every cycle issues or waits on a command.  At each load the
  two results must be bit-identical on ``result_fingerprint`` before
  any timing is reported; the section reports cycles/sec and the
  speedup per load (the documented target is >= 5x at client_rate
  >= 0.5).
* **design_space** — the E10 MPEG2 exploration with the reference
  configuration (python pareto engine, cold caches) vs the optimized one
  (vectorized pareto, enumeration precheck, memoized evaluator), plus
  the warm re-explore hit rate.
* **batched_design_space** — the same 240-point grid evaluated by the
  scalar reference loop (macro construction + ``evaluate_macro`` +
  ``meets`` + ``objective_tuple`` per point) vs the numpy array-lane
  kernel (``evaluate_macro_grid`` + ``feasible_mask`` +
  ``objective_matrix``).  Every lane must match the scalar result to
  exact float equality; the documented target is >= 50x.
* **parallel_sweep** — a macro-evaluation sweep run serially and through
  the process pool (falls back to serial on single-CPU machines; the
  worker count used is recorded either way).
* **observability** — the MPEG2-decoder workload with observability
  off, metrics-only and metrics+tracing.  Results must be bit-identical
  across all three; the section reports the overhead ratios (the
  documented budget is < 2x with full tracing on).
* **injection** — the canonical injected workload on the plain
  controller, on the resilient controller with a disabled injector
  (must be bit-identical to the plain run) and with injection enabled.
  The section reports the overhead ratios (documented budget: the
  disabled injector stays under 2x; see docs/RESILIENCE.md).
* **sweep_telemetry** — the macro-evaluation sweep with the run
  ledger + progress reporter on vs fully off.  The point results must
  be identical; the section reports the telemetry overhead ratio (the
  documented budget is < 5% — telemetry is per-chunk/per-event, never
  per-simulated-cycle).
* **obs_tracing** — the same ledgered sweep with a trace context bound
  vs without one.  The point results must be bit-identical (tracing is
  identity metadata, never data); the section reports the tracing
  overhead ratio (documented budget: < 5% over the untraced ledgered
  run).
* **dft_flow** — a lot of E09's Section 6 test flow (64x64 dies,
  March C-, seed 42) with the cell-by-cell reference march
  (:func:`repro.verify.march_reference`) vs the default fault-sparse
  ``MarchTest.run``.  The two lots' ``FlowResult`` must be equal before
  any timing is reported; the section reports ms/die on each path and
  the speedup (the documented target is >= 50x).
* **serve_cache** — the E10 MPEG2 exploration submitted twice to an
  in-process exploration service: cold (full execution) vs warm (a
  content-addressed cache hit).  The responses must be byte-identical
  and the warm request must trigger zero new executions; the documented
  target is a >= 10x warm-over-cold speedup.
* **cold_start** — a fresh interpreter running the queue worker's cold
  path (``sweep_store``'s set-up probe plus ``import
  repro.core.worker``) to its first result: min of 5 runs, each
  normalised by the e2e benchmark's reference read around it on one
  pinned CPU, and the number of ``repro`` modules it loaded, which
  must stay under :data:`COLD_START_MODULE_CEILING`.

Every run also appends one entry (mode, commit, the numeric metrics of
every section) to ``BENCH_history.jsonl`` so
``repro report --check-regression`` can gate future runs against the
rolling baseline; ``--no-history`` skips the append, ``--history``
points it elsewhere.

Run directly::

    python benchmarks/bench_perf.py [--smoke] [--out BENCH_perf.json]

``--smoke`` shrinks the cycle budget so CI can exercise the whole
harness in seconds; also usable under pytest (collects as two tests).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.evaluator import Evaluator
from repro.core.explorer import DesignSpaceExplorer
from repro.core.sweep import Sweep
from repro.controller.controller import ControllerConfig, MemoryController
from repro.dft.flow import TestFlow
from repro.dft.march import MARCH_C_MINUS, MarchTest
from repro.dram.device import DRAMDevice
from repro.dram.edram import EDRAMMacro
from repro.dram.organizations import (
    AddressMapping,
    MappingScheme,
    Organization,
)
from repro.dram.timing import PC100_TIMING
from repro.experiments.e10_design_space import mpeg2_requirements
from repro.reporting.profiling import PerfReport, measure
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.traffic.client import ClientKind, MemoryClient
from repro.traffic.patterns import RandomPattern, SequentialPattern
from repro.units import MBIT
from repro.verify.differential import result_fingerprint
from repro.verify.march import march_reference

#: Per-client request rate of the low-load scenario (display-refresh-
#: style duty cycle where idle-cycle skipping matters most).
LOW_LOAD_RATE = 0.001

_REQUIREMENTS = mpeg2_requirements()


def build_simulator(
    cycles: int, warmup: int, backend: str = "event", seed: int = 0
) -> MemorySystemSimulator:
    """E5-style system: stream + block + random clients on 4 banks.

    ``seed`` deterministically offsets every RNG in the workload (the
    random pattern and each client's read/write draw), so one benchmark
    configuration is pinned by ``(cycles, warmup, seed)`` alone and
    re-runs are bit-identical.
    """
    org = Organization(n_banks=4, n_rows=2048, page_bits=4096, word_bits=16)
    device = DRAMDevice(organization=org, timing=PC100_TIMING)
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(organization=org),
        config=ControllerConfig(),
    )
    quarter = org.total_words // 4
    clients = [
        MemoryClient(
            name="display",
            pattern=SequentialPattern(base=0, length=quarter),
            rate=LOW_LOAD_RATE,
            kind=ClientKind.STREAM,
        ),
        MemoryClient(
            name="video",
            pattern=SequentialPattern(base=quarter, length=quarter),
            rate=LOW_LOAD_RATE,
            read_fraction=0.7,
            kind=ClientKind.BLOCK,
            seed=seed + 7,
        ),
        MemoryClient(
            name="cpu",
            pattern=RandomPattern(
                base=0, length=org.total_words, seed=seed + 3
            ),
            rate=LOW_LOAD_RATE,
            read_fraction=0.6,
            kind=ClientKind.RANDOM,
            seed=seed + 11,
        ),
    ]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(
            cycles=cycles, warmup_cycles=warmup, backend=backend
        ),
    )


#: Per-client request rate of the high-load scenario (client_rate >=
#: 0.5: no cycle is idle, so only the event backend's command-scan
#: skipping pays off).
HIGH_LOAD_RATE = 0.6


def build_highload_simulator(
    cycles: int, warmup: int, backend: str
) -> MemorySystemSimulator:
    """Row-hit-heavy eight-client system for the event-engine bench.

    Bank-high address mapping plus one private sequential stream per
    bank keeps every client inside its own open row, so the system is
    data-bus-limited: almost every cycle issues or waits on a column
    command, no cycle is idle, and the naive loop's full-window
    scheduler scan *is* the cost being measured.
    """
    macro = EDRAMMacro.build(
        size_bits=4 * MBIT, width=64, banks=8, page_bits=2048
    )
    device = macro.device()
    org = device.organization
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(org, MappingScheme.BANK_ROW_COL),
        config=ControllerConfig(fifo_capacity=8, window_size=64),
    )
    words_per_bank = org.total_words // org.n_banks
    clients = [
        MemoryClient(
            name=f"stream{index}",
            pattern=SequentialPattern(
                base=index * words_per_bank,
                length=org.columns_per_page,
            ),
            rate=HIGH_LOAD_RATE,
            read_fraction=0.7,
            kind=ClientKind.BLOCK,
            seed=13 + index,
        )
        for index in range(org.n_banks)
    ]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(
            cycles=cycles, warmup_cycles=warmup, backend=backend
        ),
    )


def _naive_vs_event(build, total: int, repeat: int = 3) -> dict:
    """Best-of-``repeat`` naive vs event timings of ``build(backend)``.

    Every run starts from a freshly built simulator of ``total``
    cycles.  The event runs must stay on the event engine and match
    the naive result on ``result_fingerprint`` before any timing is
    returned.
    """
    naive_s, naive_result = measure(lambda: build("cycle").run(), repeat)
    event_s = float("inf")
    for _ in range(repeat):
        simulator = build("event")
        seconds, event_result = measure(simulator.run)
        event_s = min(event_s, seconds)
        if simulator.backend_used != "event":
            raise AssertionError(
                "event backend fell back to the naive loop: "
                f"{simulator.backend_fallback_reason}"
            )
    if result_fingerprint(naive_result) != result_fingerprint(event_result):
        raise AssertionError(
            "event backend result diverged from the naive loop"
        )
    return {
        "cycles": total,
        "naive_seconds": naive_s,
        "event_seconds": event_s,
        "naive_cycles_per_sec": total / naive_s,
        "event_cycles_per_sec": total / event_s,
        "speedup": naive_s / event_s,
        "requests_completed": event_result.requests_completed,
    }


def bench_event_engine(
    report: PerfReport, low: tuple, high: tuple, seed: int = 0
) -> None:
    """Naive loop vs event engine at low and high load.

    ``low`` and ``high`` are ``(cycles, warmup)`` for the E5-style
    low-load system and the row-hit-heavy high-load system.
    """
    section: dict = {
        "seed": seed,
        "low_client_rate": LOW_LOAD_RATE,
        "high_client_rate": HIGH_LOAD_RATE,
    }
    for level, build, (cycles, warmup) in (
        (
            "low",
            lambda backend: build_simulator(*low, backend, seed=seed),
            low,
        ),
        (
            "high",
            lambda backend: build_highload_simulator(*high, backend),
            high,
        ),
    ):
        timings = _naive_vs_event(build, cycles + warmup)
        section.update(
            {f"{level}_{key}": value for key, value in timings.items()}
        )
    section["identical"] = True
    report.add("event_engine", **section)


class _ReferenceMarch(MarchTest):
    """A march that runs as the cell-by-cell reference walk."""

    run = march_reference


def bench_dft_flow(report: PerfReport, smoke: bool = False) -> None:
    """E09's lot on the reference march vs the fault-sparse march."""
    dies = 12 if smoke else 24
    fast_flow = TestFlow(mean_faults_per_die=1.2)
    reference_flow = dataclasses.replace(
        fast_flow,
        test=_ReferenceMarch(MARCH_C_MINUS.name, MARCH_C_MINUS.elements),
    )
    reference_s, reference = measure(
        lambda: reference_flow.run_lot(dies, seed=42)
    )
    fast_s, fast = measure(lambda: fast_flow.run_lot(dies, seed=42), 5)
    if fast != reference:
        raise AssertionError(
            f"fault-sparse march lot {fast} != reference lot {reference}"
        )
    report.add(
        "dft_flow",
        dies=dies,
        reference_ms_per_die=1e3 * reference_s / dies,
        fast_ms_per_die=1e3 * fast_s / dies,
        speedup=reference_s / fast_s,
        identical=True,
    )


def bench_design_space(report: PerfReport) -> None:
    def reference() -> int:
        explorer = DesignSpaceExplorer(
            evaluator=Evaluator(), pareto_engine="python"
        )
        return explorer.explore(_REQUIREMENTS).n_explored

    def optimized():
        explorer = DesignSpaceExplorer(evaluator=Evaluator())
        result = explorer.explore(_REQUIREMENTS)
        return explorer, result.n_explored

    reference_s, n_points = measure(reference)
    optimized_s, (explorer, _) = measure(optimized)
    # Warm re-explore: every evaluation served from the memo.
    warm_s, _ = measure(lambda: explorer.explore(_REQUIREMENTS).n_explored)
    info = explorer.evaluator.macro_cache_info()
    report.add(
        "design_space",
        points=n_points,
        reference_seconds=reference_s,
        optimized_seconds=optimized_s,
        warm_seconds=warm_s,
        reference_evals_per_sec=n_points / reference_s,
        optimized_evals_per_sec=n_points / optimized_s,
        speedup=reference_s / optimized_s,
        warm_speedup=reference_s / warm_s,
        cache_hits=info["hits"],
        cache_misses=info["misses"],
    )


def bench_batched_design_space(report: PerfReport) -> None:
    """Scalar reference loop vs the numpy array-lane kernel, 240 points.

    Both sides start from the same enumerated (size, width, banks,
    page) combinations and produce the feasibility mask plus the
    objective matrix; the batched side must match the scalar side to
    exact float equality on every lane before any timing is reported.
    """
    import numpy as np

    from repro.core.batch import evaluate_macro_grid

    combos = [
        (m.size_bits, m.width, m.banks, m.page_bits)
        for m in DesignSpaceExplorer().enumerate(_REQUIREMENTS)
    ]
    size, width, banks, page = (
        np.array(lane, dtype=np.int64) for lane in zip(*combos)
    )
    params = [
        dict(size_bits=s, width=w, banks=b, page_bits=p)
        for s, w, b, p in combos
    ]

    def reference():
        evaluator = Evaluator()
        rows = []
        for point in params:
            metrics = evaluator.evaluate_macro(
                EDRAMMacro(**point), _REQUIREMENTS
            )
            rows.append(
                (evaluator.meets(metrics, _REQUIREMENTS), metrics)
            )
        return rows

    def batched():
        evaluator = Evaluator()
        batch = evaluate_macro_grid(
            evaluator, _REQUIREMENTS, size, width, banks, page
        )
        return batch, batch.feasible_mask(), batch.objective_matrix()

    # Exactness first: every materialized lane equals the scalar
    # metrics bit for bit, and mask/objectives agree.
    scalar_rows = reference()
    batch, mask, matrix = batched()
    exact = all(
        metrics == batch.metrics(index)
        and feasible == bool(mask[index])
        and metrics.objective_tuple() == tuple(matrix[index])
        for index, (feasible, metrics) in enumerate(scalar_rows)
    )
    if not exact:
        raise AssertionError(
            "batched evaluation diverged from the scalar evaluator"
        )
    reference_s, _ = measure(reference, repeat=5)
    batched_s, _ = measure(batched, repeat=5)
    n = len(combos)
    report.add(
        "batched_design_space",
        points=n,
        reference_seconds=reference_s,
        batched_seconds=batched_s,
        reference_evals_per_sec=n / reference_s,
        batched_evals_per_sec=n / batched_s,
        speedup=reference_s / batched_s,
        identical=exact,
    )


def evaluate_sweep_point(width: int, page_bits: int) -> float:
    """Module-level (picklable) sweep evaluation for the pool bench."""
    evaluator = Evaluator()
    macro = EDRAMMacro(
        size_bits=16 * MBIT, width=width, banks=4, page_bits=page_bits
    )
    metrics = evaluator.evaluate_macro(macro, _REQUIREMENTS)
    return metrics.sustained_bandwidth_bits_per_s


def bench_parallel_sweep(report: PerfReport) -> None:
    import warnings

    from repro.core.executor import LocalPoolExecutor
    from repro.core.parallel import ParallelFallbackWarning

    sweep = Sweep(
        axes={
            "width": [16, 32, 64, 128, 256],
            "page_bits": [1024, 2048, 4096, 8192],
        }
    )
    serial_s, serial_result = measure(
        lambda: sweep.run(evaluate_sweep_point, skip_errors=True)
    )
    # Don't over-subscribe small CI boxes: cap the pool at 4 workers.
    workers = min(4, os.cpu_count() or 1)
    executor = LocalPoolExecutor(workers=workers)
    fallback_reason = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParallelFallbackWarning)
        parallel_s, parallel_result = measure(
            lambda: sweep.run(
                evaluate_sweep_point,
                skip_errors=True,
                executor=executor,
            )
        )
        for warning in caught:
            if issubclass(warning.category, ParallelFallbackWarning):
                fallback_reason = str(warning.message)
    matches = [
        (p.parameters, p.result) for p in serial_result.points
    ] == [(p.parameters, p.result) for p in parallel_result.points]
    if not matches:
        raise AssertionError("parallel sweep diverged from serial sweep")
    n = len(serial_result.points)
    report.add(
        "parallel_sweep",
        points=n,
        workers=workers,
        fallback_reason=fallback_reason,
        serial_seconds=serial_s,
        parallel_seconds=parallel_s,
        serial_evals_per_sec=n / serial_s,
        parallel_evals_per_sec=n / parallel_s,
        # A one-worker pool (or a fallback to serial) measures pool
        # overhead, not parallelism — no speedup claim is made then.
        speedup_expected=workers > 1 and fallback_reason is None,
        speedup=serial_s / parallel_s,
        identical=matches,
    )


def measure_alternating(off, on, repeat: int = 3) -> tuple:
    """Best-of-``repeat`` wall times of ``off()`` and ``on()``, run
    alternately so host drift during the probe lands on both sides
    instead of in their ratio.

    Returns ``(off_s, off_result, on_s, on_result)``; each result is
    its side's last.
    """
    off_s = on_s = float("inf")
    for _ in range(repeat):
        seconds, off_result = measure(off)
        off_s = min(off_s, seconds)
        seconds, on_result = measure(on)
        on_s = min(on_s, seconds)
    return off_s, off_result, on_s, on_result


def evaluate_telemetry_point(seed: int, cycles: int) -> tuple:
    """One sweep point of the telemetry bench: a short simulation,
    reduced to its :func:`result_fingerprint` so the on/off comparison
    is literally a bit-identity check."""
    result = build_simulator(
        cycles, cycles // 8, backend="cycle", seed=seed
    ).run()
    return result_fingerprint(result)


def bench_sweep_telemetry(
    report: PerfReport,
    cycles: int = 400,
    ledger_out: str | None = None,
) -> None:
    """Ledger + progress on vs off over a simulation-backed sweep.

    The points are short naive-loop simulations (milliseconds each) so
    the ledger's fixed open cost — provenance, git subprocess — is
    amortized the way a real sweep amortizes it, and the ratio measures
    the per-point/per-event steady state.
    """
    import io
    import itertools
    import shutil
    import tempfile

    from repro.obs.progress import ProgressReporter

    sweep = Sweep(axes={"seed": list(range(24)), "cycles": [cycles]})
    n = sweep.n_points
    tmpdir = tempfile.mkdtemp(prefix="bench-ledger-")
    counter = itertools.count()
    last_ledger: list = []

    def run_with_telemetry():
        # A fresh ledger file per repeat: each run pays the full
        # open-and-provenance cost, like a real sweep would.
        path = os.path.join(tmpdir, f"sweep-{next(counter)}.ledger.jsonl")
        last_ledger[:] = [path]
        progress = ProgressReporter(
            total=n,
            stream=io.StringIO(),
            enabled=True,
            min_interval_s=0.0,
        )
        return sweep.run(
            evaluate_telemetry_point,
            skip_errors=True,
            ledger=path,
            progress=progress,
        )

    off_s, off_result, on_s, on_result = measure_alternating(
        lambda: sweep.run(evaluate_telemetry_point, skip_errors=True),
        run_with_telemetry,
    )
    identical = [
        (p.parameters, p.result) for p in off_result.points
    ] == [(p.parameters, p.result) for p in on_result.points]
    if not identical:
        raise AssertionError("telemetry changed the sweep fingerprints")
    with open(last_ledger[0], "r", encoding="utf-8") as handle:
        ledger_events = sum(1 for line in handle if line.strip())
    if ledger_out is not None:
        shutil.copyfile(last_ledger[0], ledger_out)
    shutil.rmtree(tmpdir, ignore_errors=True)
    report.add(
        "sweep_telemetry",
        points=n,
        cycles_per_point=cycles,
        off_seconds=off_s,
        telemetry_seconds=on_s,
        telemetry_overhead_ratio=on_s / off_s,
        ledger_events=ledger_events,
        identical=identical,
    )


def bench_obs_tracing(report: PerfReport, cycles: int = 400) -> None:
    """Trace-context propagation on vs off over a ledgered sweep.

    Both runs carry a full ledger — the delta isolates what the trace
    context itself costs: minting child contexts per span/chunk and
    stamping three id fields onto every event.  Budget: < 5% over the
    untraced ledgered run, and the sweep results (reduced to
    ``result_fingerprint`` by the evaluation function) must be
    bit-identical — tracing is identity metadata, never data.
    """
    import itertools
    import os as _os
    import shutil
    import tempfile

    from repro.obs.ledger import RunLedger
    from repro.obs.tracectx import TraceContext

    sweep = Sweep(axes={"seed": list(range(24)), "cycles": [cycles]})
    tmpdir = tempfile.mkdtemp(prefix="bench-tracing-")
    counter = itertools.count()

    def run_with_ledger(trace):
        path = _os.path.join(
            tmpdir, f"sweep-{next(counter)}.ledger.jsonl"
        )
        ledger = RunLedger(path, trace=trace)
        try:
            return sweep.run(
                evaluate_telemetry_point, skip_errors=True, ledger=ledger
            )
        finally:
            ledger.close()

    off_s, off_result, on_s, on_result = measure_alternating(
        lambda: run_with_ledger(None),
        lambda: run_with_ledger(TraceContext.root()),
    )
    shutil.rmtree(tmpdir, ignore_errors=True)
    identical = [
        (p.parameters, p.result) for p in off_result.points
    ] == [(p.parameters, p.result) for p in on_result.points]
    if not identical:
        raise AssertionError("trace context changed the sweep results")
    report.add(
        "obs_tracing",
        points=sweep.n_points,
        cycles_per_point=cycles,
        untraced_seconds=off_s,
        traced_seconds=on_s,
        tracing_overhead_ratio=on_s / off_s,
        identical=identical,
    )


#: Fresh 2-worker executors the ``distributed`` section times, and the
#: maps each runs after its first (fresh) one.
QUEUE_ROUNDS = 5
REUSED_MAPS = 3
#: Ceiling on the 2-worker queue's fixed cost per map: fresh map and
#: close() minus serial sweep (docs/DISTRIBUTED.md gives the figures
#: behind it).
QUEUE_FIXED_COST_CEILING_S = 0.05
#: Ceiling on a reused map's cost over a fresh one (median reused map
#: / median fresh map and close()).
REUSE_RATIO_CEILING = 1.2


def bench_distributed(report: PerfReport, smoke: bool = False) -> None:
    """Work-queue executor vs the serial reference, plus kill/resume.

    Four gates, in order:

    1. **Identity** — a 2-worker (and, with the CPUs for it, 4-worker)
       work-queue sweep over the simulation workload must match the
       serial reference point for point on ``result_fingerprint``
       values, every time, before any timing is reported.
    2. **Scaling** — the documented targets are >= 1.7x at 2 workers
       and >= 3x at 4 workers.  Like ``bench_parallel_sweep``, the
       claims only apply when the machine has the cores to back them
       (``scaling_expected_*``): a 1-CPU CI box measures coordination
       overhead, not parallelism.  Whether a target was met is
       recorded as ``target_met_*``.
    3. **Resume** — a run with a durable result store has one worker
       ``SIGKILL``-ed mid-sweep while it holds an unfinished chunk's
       lease, so the sweep can only finish once that lease expires and
       the chunk is stolen; the merged result must still be
       bit-identical to serial.  ``requeued_chunks`` counts every
       requeue (only the coordinator requeues), so it is at least 1.
       A second run against the same store must evaluate zero fresh
       points (the no-fingerprint-evaluated-twice probe).
    4. **Fixed cost** — each of :data:`QUEUE_ROUNDS` fresh 2-worker
       executors runs :data:`REUSED_MAPS` more maps after its first,
       each identical to serial (``seconds_2w`` is the median fresh
       map, ``close_2w_s`` the median ``close()``).  A reused map
       drains the previous map's fleet, as a fresh executor's
       ``close()`` does, so a fresh map is costed with its close: the
       section records ``fixed_cost_2w_s`` (median of fresh map plus
       close minus the serial sweep timed beside it) and
       ``reuse_ratio`` (median reused map over median fresh map plus
       close) with their ceilings, :data:`QUEUE_FIXED_COST_CEILING_S` and
       :data:`REUSE_RATIO_CEILING`; ``test_perf_smoke`` and CI assert
       them.  At the smoke size the points are too short for two
       workers to beat serial, so the probe measures the queue's
       fixed cost, not scaling.
    """
    import shutil
    import tempfile
    import threading

    from repro.core.executor import WorkQueueExecutor
    from repro.core.store import ResultStore
    # Workers unpickle the task function by reference, so the workload
    # must come from an importable module: this script is ``__main__``
    # (or pytest's ``bench_perf``), which a forked local worker could
    # resolve but an external worker could not import.
    from repro.serve.workloads import sim_fingerprint
    from repro.verify.chaos import kill_worker_holding_lease

    n_seeds = 8 if smoke else 24
    cycles = 200 if smoke else 1_000
    sweep = Sweep(axes={"seed": list(range(n_seeds)), "cycles": [cycles]})
    serial_s, serial_result = measure(
        lambda: sweep.run(sim_fingerprint, skip_errors=True)
    )
    reference = [
        (p.parameters, p.result) for p in serial_result.points
    ]
    cpu = os.cpu_count() or 1
    tmpdir = tempfile.mkdtemp(prefix="bench-dist-")
    section: dict = {
        "points": n_seeds,
        "cycles_per_point": cycles,
        "cpus": cpu,
        "serial_seconds": serial_s,
    }
    try:
        def timed_maps(name: str, workers: int, maps: int) -> tuple:
            """Wall time of each of ``maps`` maps on one executor, and
            of its ``close()``."""
            executor = WorkQueueExecutor(
                os.path.join(tmpdir, name),
                workers=workers,
                lease_timeout_s=30.0,
                timeout_s=600.0,
            )
            seconds = []
            try:
                for _ in range(maps):
                    elapsed, result = measure(
                        lambda: sweep.run(
                            sim_fingerprint,
                            skip_errors=True,
                            executor=executor,
                        )
                    )
                    if [
                        (p.parameters, p.result) for p in result.points
                    ] != reference:
                        raise AssertionError(
                            f"{workers}-worker work-queue sweep "
                            "diverged from the serial reference"
                        )
                    seconds.append(elapsed)
            finally:
                started = time.perf_counter()
                executor.close()
            return seconds, time.perf_counter() - started

        # Two workers: QUEUE_ROUNDS rounds of a serial sweep beside a
        # fresh executor that then runs REUSED_MAPS more maps.  Pairing
        # each fresh map with its round's serial sweep keeps host-speed
        # drift out of the fixed cost.  A reused map drains the last
        # map's fleet, which a fresh executor does in close(), so a
        # fresh map's cost includes its close().
        serials, fresh, closes, reused = [], [], [], []
        for round_index in range(QUEUE_ROUNDS):
            serials.append(
                measure(
                    lambda: sweep.run(sim_fingerprint, skip_errors=True)
                )[0]
            )
            seconds, close_s = timed_maps(
                f"queue-2w-{round_index}", 2, 1 + REUSED_MAPS
            )
            fresh.append(seconds[0])
            closes.append(close_s)
            reused.extend(seconds[1:])
        seconds_by_workers = {2: statistics.median(fresh)}
        if not smoke and cpu >= 4:
            seconds_by_workers[4] = timed_maps("queue-4w", 4, 1)[0][0]
        for workers, dist_s in seconds_by_workers.items():
            expected = cpu >= workers
            speedup = serial_s / dist_s
            section[f"seconds_{workers}w"] = dist_s
            section[f"speedup_{workers}w"] = speedup
            section[f"scaling_expected_{workers}w"] = expected
            # Reported, not raised: on a small host the per-point work
            # is too short to amortize worker start-up, and aborting
            # here would lose every other section of a full run.
            target = {2: 1.7, 4: 3.0}[workers]
            section[f"target_met_{workers}w"] = (
                not expected or speedup >= target
            )
        fresh_closed = [f + c for f, c in zip(fresh, closes)]
        section.update(
            close_2w_s=statistics.median(closes),
            fixed_cost_2w_s=statistics.median(
                f - s for f, s in zip(fresh_closed, serials)
            ),
            fixed_cost_ceiling_s=QUEUE_FIXED_COST_CEILING_S,
            seconds_2w_reused=statistics.median(reused),
            reuse_ratio=(
                statistics.median(reused) / statistics.median(fresh_closed)
            ),
            reuse_ratio_ceiling=REUSE_RATIO_CEILING,
        )
        # -- kill/resume cycle ------------------------------------------------
        store = ResultStore(
            path=os.path.join(tmpdir, "results.store.jsonl")
        )
        executor = WorkQueueExecutor(
            os.path.join(tmpdir, "queue-chaos"),
            workers=2,
            lease_timeout_s=2.0,
            timeout_s=600.0,
        )
        holder: dict = {}

        def chaos_run() -> None:
            holder["result"] = sweep.run(
                sim_fingerprint,
                skip_errors=True,
                executor=executor,
                store=store,
            )

        thread = threading.Thread(target=chaos_run)
        thread.start()
        # SIGKILL a worker while it holds an unfinished chunk's lease:
        # the lease must expire and the survivor steal the chunk.
        killed = kill_worker_holding_lease(executor)
        thread.join(timeout=600.0)
        executor.close()
        resumed = holder.get("result")
        if resumed is None:
            raise AssertionError(
                "work-queue sweep did not recover from the killed worker"
            )
        if killed is None:
            raise AssertionError(
                "never caught a worker holding an unfinished lease"
            )
        if executor.stats["requeued"] < 1:
            raise AssertionError(
                "the killed worker's lease was never requeued"
            )
        resume_identical = [
            (p.parameters, p.result) for p in resumed.points
        ] == reference
        if not resume_identical:
            raise AssertionError(
                "post-kill work-queue result diverged from serial"
            )
        # Warm re-run against the same store: every point served from
        # the store, zero fresh evaluations.
        warm = sweep.run(
            sim_fingerprint, skip_errors=True, store=store
        )
        warm_identical = [
            (p.parameters, p.result) for p in warm.points
        ] == reference
        if not warm_identical:
            raise AssertionError(
                "store-served re-run diverged from serial"
            )
        store_stats = store.stats()
        if store_stats["hits"] < n_seeds:
            raise AssertionError(
                "warm re-run was not fully served from the store: "
                f"{store_stats}"
            )
        store.close()
        section.update(
            identical=True,
            resume_identical=resume_identical,
            warm_identical=warm_identical,
            requeued_chunks=executor.stats["requeued"],
            store_entries=store_stats["entries"],
            store_hits=store_stats["hits"],
        )
        report.add("distributed", **section)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def bench_observability(
    report: PerfReport, cycles: int, warmup: int, trace_out: str | None = None
) -> None:
    """MPEG2 workload with observability off, metrics-only and tracing.

    Observed runs need per-cycle events, so they run on the naive loop;
    the overhead ratios compare them with an unobserved run on that same
    loop.  ``event_seconds`` is the unobserved run on the default event
    engine, i.e. what a user gives up by attaching observability.
    """
    from repro.obs import Observability
    from repro.obs.workloads import mpeg2_decoder_simulator

    def run_workload(obs, backend="cycle"):
        simulator = mpeg2_decoder_simulator(
            cycles=cycles, warmup_cycles=warmup, obs=obs
        )
        simulator.config = dataclasses.replace(
            simulator.config, backend=backend
        )
        return simulator.run()

    off_s, off_result = measure(lambda: run_workload(None))
    event_s, event_result = measure(lambda: run_workload(None, "event"))
    metrics_obs = Observability.create(trace=False)
    metrics_s, metrics_result = measure(lambda: run_workload(metrics_obs))
    trace_obs = Observability.create(trace=True)
    trace_s, trace_result = measure(lambda: run_workload(trace_obs))
    baseline = result_fingerprint(off_result)
    if any(
        result_fingerprint(result) != baseline
        for result in (event_result, metrics_result, trace_result)
    ):
        raise AssertionError(
            "observability changed the simulation result"
        )
    if trace_out is not None:
        trace_obs.trace.write(trace_out)
    report.add(
        "observability",
        cycles=cycles + warmup,
        off_seconds=off_s,
        event_seconds=event_s,
        metrics_seconds=metrics_s,
        trace_seconds=trace_s,
        metrics_overhead_ratio=metrics_s / off_s,
        trace_overhead_ratio=trace_s / off_s,
        trace_events=len(trace_obs.trace.events),
        bit_identical=True,
    )


def bench_injection(report: PerfReport, cycles: int, warmup: int) -> None:
    """Canonical injected workload: plain, disabled and enabled injector.

    The resilient controller always runs on the naive loop (the event
    engine declines controller subclasses), so the overhead ratios
    compare it with the plain controller on that same loop;
    ``plain_event_seconds`` is the plain controller on the default event
    engine.
    """
    from repro.inject import InjectionConfig
    from repro.inject.runtime import build_injected_simulator

    def run_injected(injection, backend="cycle"):
        simulator = build_injected_simulator(
            injection, cycles=cycles, warmup_cycles=warmup
        )
        simulator.config = dataclasses.replace(
            simulator.config, backend=backend
        )
        return simulator.run()

    plain_s, plain_result = measure(lambda: run_injected(None))
    plain_event_s, plain_event_result = measure(
        lambda: run_injected(None, "event")
    )
    disabled_s, disabled_result = measure(
        lambda: run_injected(
            InjectionConfig(enabled=False, n_cell_faults=200)
        )
    )
    enabled_s, enabled_result = measure(
        lambda: run_injected(
            InjectionConfig(
                n_cell_faults=200,
                refresh_drop_rate=0.05,
                fifo_stall_rate=0.02,
            )
        )
    )
    plain = result_fingerprint(plain_result)
    if plain != result_fingerprint(
        disabled_result
    ) or plain != result_fingerprint(plain_event_result):
        raise AssertionError(
            "disabled injection diverged from the plain controller"
        )
    report.add(
        "injection",
        cycles=cycles + warmup,
        plain_seconds=plain_s,
        plain_event_seconds=plain_event_s,
        disabled_seconds=disabled_s,
        enabled_seconds=enabled_s,
        disabled_overhead_ratio=disabled_s / plain_s,
        enabled_overhead_ratio=enabled_s / plain_s,
        requests_completed=enabled_result.requests_completed,
        bit_identical=True,
    )


def bench_serve(report: PerfReport) -> None:
    """Exploration service: cold execute vs warm content-addressed hit.

    One in-process service runs the E10 MPEG2 exploration cold (a full
    ``DesignSpaceExplorer`` pass behind the job executor), then the
    byte-identical job again warm — the second response must come
    straight out of the result cache, with zero new executions.  The
    documented target is a >= 10x warm-over-cold speedup (the warm path
    is a dict lookup plus JSON decode, so in practice it is orders of
    magnitude beyond that).

    Then the same warm hit over a real socket (:func:`bench_serve_socket`).
    """
    from repro.serve.client import InProcessClient
    from repro.serve.handlers import ExplorationService
    from repro.serve.protocol import canonical_json

    job = {"kind": "explore", "requirements": "mpeg2"}
    service = ExplorationService(max_workers=2)
    client = InProcessClient(service)
    try:
        # repeat=1: a second cold run would hit the cache and measure
        # the warm path twice instead.
        cold_s, cold_envelope = measure(
            lambda: client.run(job, timeout_s=300.0), repeat=1
        )
        warm_s, warm_envelope = measure(
            lambda: client.run(job, timeout_s=300.0), repeat=5
        )
        identical = canonical_json(cold_envelope) == canonical_json(
            warm_envelope
        )
        if not identical:
            raise AssertionError(
                "warm service response diverged from the cold one"
            )
        if service.stats["executions"] != 1:
            raise AssertionError(
                "warm requests re-executed the job: "
                f"{service.stats['executions']} executions"
            )
        report.add(
            "serve_cache",
            points=cold_envelope["result"]["n_explored"],
            cold_seconds=cold_s,
            # Deliberately not *_seconds: warm latency is microseconds
            # of dict lookup, so the +30% regression gate on timing
            # metrics would trip on pure scheduler noise.
            warm_latency_s=warm_s,
            speedup=cold_s / warm_s,
            cache_hits=service.stats["cache_hits"],
            executions=service.stats["executions"],
            identical=identical,
        )
    finally:
        service.close()
    bench_serve_socket(report, job)


#: Warm jobs per timed batch of the ``serve_socket`` section.
SOCKET_WARM_JOBS = 50


def bench_serve_socket(report: PerfReport, job: dict) -> None:
    """A warm job (submit, long-poll, result) over HTTP to a live
    server in this process: per job on one ``ServeClient``, whose
    connection stays open, and with a fresh client, so a new TCP
    connection, per job.  Sub-millisecond, so recorded without a smoke
    bound; the keys avoid ``*_seconds`` so the regression gate skips
    them."""
    from repro.serve.client import ServeClient
    from repro.serve.testing import running_server

    def warm_job(client) -> bytes:
        job_id = client.submit(job)["job_id"]
        client.wait(job_id, timeout_s=30.0)
        return client.result_bytes(job_id)

    with running_server() as (server, client):
        url = f"http://{client.host}:{client.port}"
        client.run(job, timeout_s=300.0)

        def reused() -> list:
            return [warm_job(client) for _ in range(SOCKET_WARM_JOBS)]

        def fresh() -> list:
            bodies = []
            for _ in range(SOCKET_WARM_JOBS):
                with ServeClient(url) as each:
                    bodies.append(warm_job(each))
            return bodies

        fresh_s, fresh_bodies, reused_s, reused_bodies = measure_alternating(
            fresh, reused
        )
        executions = server.service.stats["executions"]
    identical = len(set(fresh_bodies + reused_bodies)) == 1
    if not identical or executions != 1:
        raise AssertionError(
            f"warm socket jobs diverged or re-executed ({executions} "
            "executions)"
        )
    report.add(
        "serve_socket",
        jobs=SOCKET_WARM_JOBS,
        warm_job_s=reused_s / SOCKET_WARM_JOBS,
        warm_job_fresh_client_s=fresh_s / SOCKET_WARM_JOBS,
        reuse_speedup=fresh_s / reused_s,
        identical=identical,
    )


#: The queue worker's cold path: ``sweep_store``'s set-up probe (one
#: ``sim_fingerprint`` point) plus the worker module, in a fresh
#: interpreter that then prints how many ``repro`` modules it loaded.
COLD_START_CODE = (
    "from repro.core.sweep import Sweep\n"
    "from repro.serve.workloads import sim_fingerprint\n"
    "sim_fingerprint(seed=0, cycles=500)\n"
    "import repro.core.worker\n"
    "import sys\n"
    "print(sum(1 for m in sys.modules if m.split('.')[0] == 'repro'))\n"
)

#: Most ``repro`` modules the worker cold path may load (46 when set;
#: 119 when every package imported all its submodules at load).
COLD_START_MODULE_CEILING = 55


def bench_cold_start(report: PerfReport, repeats: int = 5) -> None:
    """A fresh interpreter running the queue worker's cold path to its
    first result: what every external worker (``python -m
    repro.core.worker``) and set-up probe pays.  The executor's local
    workers are forks of the coordinator and skip it.

    Min of ``repeats`` runs on one pinned CPU, each bracketed by the
    e2e benchmark's interpreter-work reference
    (``benchmarks/e2e/meter.py``) and normalised by the faster of its
    two readings, so host speed drift moves ``reference_s``, not
    ``first_result_seconds``, and one disturbed reading cannot pass
    for a fast run.
    """
    import subprocess

    sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
    try:
        from meter import PythonReference
    finally:
        sys.path.pop(0)
    reference = PythonReference()

    def read_reference() -> float:
        started = time.perf_counter()
        reference()
        return time.perf_counter() - started

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(affinity)})
    walls, normalised, references = [], [], [read_reference()]
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", COLD_START_CODE],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            walls.append(time.perf_counter() - started)
            references.append(read_reference())
            normalised.append(
                walls[-1] * reference.nominal_s / min(references[-2:])
            )
    finally:
        if pinned:
            os.sched_setaffinity(0, affinity)
    report.add(
        "cold_start",
        first_result_seconds=min(normalised),
        # Not *_seconds: wall time moves with host speed, which the
        # normalised figure above takes out.
        first_result_wall_s=min(walls),
        reference_s=min(references),
        repeats=repeats,
        repro_modules=int(done.stdout.split()[-1]),
        module_ceiling=COLD_START_MODULE_CEILING,
    )


def run(
    smoke: bool = False,
    seed: int = 0,
    trace_out: str | None = None,
    ledger_out: str | None = None,
) -> PerfReport:
    report = PerfReport(title="Performance benchmark (fast paths)")
    if smoke:
        bench_event_engine(
            report, low=(2_000, 200), high=(4_000, 500), seed=seed
        )
        bench_observability(
            report, cycles=4_000, warmup=500, trace_out=trace_out
        )
        bench_injection(report, cycles=2_000, warmup=200)
    else:
        bench_event_engine(
            report, low=(20_000, 1_000), high=(16_000, 1_000), seed=seed
        )
        bench_observability(
            report, cycles=16_000, warmup=1_000, trace_out=trace_out
        )
        bench_injection(report, cycles=8_000, warmup=500)
    bench_dft_flow(report, smoke=smoke)
    bench_design_space(report)
    bench_batched_design_space(report)
    bench_parallel_sweep(report)
    bench_sweep_telemetry(
        report,
        cycles=400 if smoke else 4_000,
        ledger_out=ledger_out,
    )
    bench_obs_tracing(report, cycles=400 if smoke else 4_000)
    bench_serve(report)
    bench_distributed(report, smoke=smoke)
    bench_cold_start(report)
    return report


# -- pytest entry points ----------------------------------------------------


def test_perf_smoke() -> None:
    """The whole harness runs and the fast path stays bit-identical."""
    report = run(smoke=True)
    event = report.sections["event_engine"]
    assert event["identical"]
    assert event["low_speedup"] > 1.0, event
    assert event["high_speedup"] > 1.0, event
    dft = report.sections["dft_flow"]
    assert dft["identical"]
    assert dft["speedup"] > 1.0, dft
    batched = report.sections["batched_design_space"]
    assert batched["identical"]
    assert batched["speedup"] > 1.0, batched
    assert report.sections["parallel_sweep"]["identical"]
    obs = report.sections["observability"]
    assert obs["bit_identical"]
    # The documented observability budget: full tracing stays under 2x.
    assert obs["trace_overhead_ratio"] < 2.0, obs
    inject = report.sections["injection"]
    assert inject["bit_identical"]
    # The documented injection budget: a disabled injector stays under
    # 2x of the plain controller.
    assert inject["disabled_overhead_ratio"] < 2.0, inject
    telemetry = report.sections["sweep_telemetry"]
    assert telemetry["identical"]
    assert telemetry["ledger_events"] > 0
    # The documented budget is < 5% sweep overhead with ledger +
    # progress on; the smoke assertion is looser to absorb CI noise on
    # a sub-second sweep.
    assert telemetry["telemetry_overhead_ratio"] < 1.5, telemetry
    tracing = report.sections["obs_tracing"]
    assert tracing["identical"]
    # The documented budget is < 5% over an untraced ledgered sweep;
    # the smoke bound is looser for the same sub-second-noise reason.
    assert tracing["tracing_overhead_ratio"] < 1.5, tracing
    serve = report.sections["serve_cache"]
    assert serve["identical"]
    assert serve["executions"] == 1
    # The documented service budget: a warm content-addressed hit is at
    # least 10x faster than the cold exploration it replays.
    assert serve["speedup"] >= 10.0, serve
    dist = report.sections["distributed"]
    assert dist["identical"]
    assert dist["resume_identical"]
    assert dist["warm_identical"]
    # At 8 x 200 cycles the points are too short for two workers to
    # beat serial: the probe measures the queue's fixed cost, so that
    # is what is bounded (docs/DISTRIBUTED.md).
    assert dist["fixed_cost_2w_s"] <= QUEUE_FIXED_COST_CEILING_S, dist
    assert dist["reuse_ratio"] <= REUSE_RATIO_CEILING, dist
    cold = report.sections["cold_start"]
    assert cold["repro_modules"] <= COLD_START_MODULE_CEILING, cold


def test_perf_deterministic() -> None:
    """Same seed -> bit-identical benchmark workload, twice over."""
    first = build_simulator(500, 50, seed=42).run()
    second = build_simulator(500, 50, seed=42).run()
    assert result_fingerprint(first) == result_fingerprint(second)
    # The seed visibly reaches the workload RNGs.
    sim = build_simulator(500, 50, seed=42)
    assert [client.seed for client in sim.clients[1:]] == [49, 53]


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cycle budget (CI smoke run)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload RNG seed (same seed -> bit-identical workload)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_perf.json"),
        help="JSON report path (default: repo-root BENCH_perf.json)",
    )
    parser.add_argument(
        "--trace-out",
        help="also write the observability bench's Chrome trace here",
    )
    parser.add_argument(
        "--ledger-out",
        help="also keep the sweep-telemetry bench's run ledger here "
        "(CI feeds it to `repro report`)",
    )
    parser.add_argument(
        "--history",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_history.jsonl"
        ),
        help="bench-history JSONL the regression gate reads "
        "(default: repo-root BENCH_history.jsonl)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to the bench history",
    )
    args = parser.parse_args(argv)
    report = run(
        smoke=args.smoke,
        seed=args.seed,
        trace_out=args.trace_out,
        ledger_out=args.ledger_out,
    )
    report.write_json(args.out)
    print(report.render())
    print(f"\nwrote {args.out}")
    if not args.no_history:
        from repro.obs.ledger import git_provenance
        from repro.reporting.runreport import append_history

        append_history(
            args.history,
            report.to_dict(),
            mode="smoke" if args.smoke else "full",
            commit=git_provenance().get("commit"),
        )
        print(f"appended history entry to {args.history}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
