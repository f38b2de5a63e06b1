"""End-to-end benchmark: the paper, the simulator, served exploration,
durable sweeps.

Run one workload for a fixed time, as a regression gate does::

    python3 benchmarks/e2e/run.py --workload paper --seed 3 --seconds 10 --trace 0

or every workload in turn, keeping a result file for ``compare.py``::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--out PATH]

Each workload run ends with one JSON line on standard output:
``{"correct", "attempted", "failed", "metrics"}``.  The run pins itself
to one CPU and reports times normalised to the reference host speed
(see ``meter.py``).  An untraced run reports the end-to-end metrics of
BENCHMARK.json; a traced run
(``--trace``) wraps each layer's public functions with timing shims,
reports the per-layer metrics and writes its spans as ledger JSONL to
``benchmarks/e2e/.work/ledgers/<workload>.jsonl`` (render it with
``repro trace --merge FILE --strict``).  The run exits 1 when an output
check fails and 2 when the checkout holds no ``src/repro`` to measure.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
GOLDEN = BENCH_DIR / "golden.json"
WORKLOAD_NAMES = ("paper", "sim_load", "serve_explore", "sweep_store")
END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s"}
#: Seconds a run may take beyond ``--seconds`` before it is aborted.
GRACE_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES + ("all",), default="all"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="measured time per workload (at least one op always runs)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer run with timing shims",
    )
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument(
        "--write-golden", action="store_true",
        help="record the seed-0 fingerprints into golden.json "
        "(implies --all-experiments)",
    )
    parser.add_argument(
        "--all-experiments", action="store_true",
        help="paper: also run and check E09 after the loop (~16 s)",
    )
    return parser.parse_args(argv)


def child_env() -> dict:
    """Environment for the server, worker and set-up processes."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC) if not existing else str(SRC) + os.pathsep + existing
    )
    return env


def phase_medians(workload) -> dict:
    """Median normalised op seconds of each phase."""
    return {
        phase: statistics.median(samples)
        for phase, samples in workload.samples.items()
    }


def end_to_end(workload) -> dict:
    """``setup_s``: the median set-up; ``op_p50_s``: the geometric mean
    of the phases' median ops."""
    return {
        "setup_s": statistics.median(workload.setup_times),
        "op_p50_s": statistics.geometric_mean(
            phase_medians(workload).values()
        ),
    }


def run_workload(name: str, args, golden) -> dict:
    """Set up, run ops for ``args.seconds``, check and measure one
    workload; returns its result document."""
    from meter import Meter
    from repro.obs.ledger import environment_fingerprint, git_provenance
    from spans import LAYER_METRICS, Shims, NullTracer, Tracer
    from spans import layer_metrics, layer_self_seconds
    from stats import summary
    from workloads import WORKLOADS

    work_dir = WORK / f"{name}-{os.getpid()}"
    tracer = Tracer() if args.trace else NullTracer()
    reference = WORKLOADS[name].reference()
    meter = Meter(reference)
    shims = Shims(tracer) if args.trace else nullcontext()
    try:
        workload = WORKLOADS[name](
            args.seed, work_dir, tracer, meter, child_env(), golden
        )
        workload.all_experiments = args.all_experiments or args.write_golden
        for _ in range(workload.setup_probes):
            workload.probe_setup()
        with shims:
            workload.prepare()
            started = time.perf_counter()
            group = workload.step_group
            steps = 0
            while True:
                workload.step(steps)
                steps += 1
                elapsed = time.perf_counter() - started
                # Stop at a whole group, before a group that would, on
                # average, overrun.
                if steps % group == 0 and (
                    elapsed * (steps + group) / steps > args.seconds
                ):
                    break
        workload.after_loop()
    finally:
        reference.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    document = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "provenance": {
            "cpu_count": os.cpu_count(),
            "pinned_cpu": args.pinned_cpu,
            "environment": environment_fingerprint(),
            # Only a checkout's own repository: git would otherwise
            # search the parent directories for one.
            "git": git_provenance(ROOT) if (ROOT / ".git").exists() else {},
        },
        "correct": workload.failed == 0 and not workload.errors,
        "attempted": workload.items,
        "failed": workload.failed,
        "errors": workload.errors[:20],
        "ops": sum(len(samples) for samples in workload.samples.values()),
        "digests": workload.digests,
        "detail": {
            key: summary(samples)
            for key, samples in sorted(
                [
                    ("setup_s", workload.setup_times),
                    ("setup_wall_s", workload.setup_walls),
                    ("reference_s", meter.ref_times),
                ]
                + [(f"{p}_s", s) for p, s in workload.samples.items()]
                + [(f"{p}_wall_s", s) for p, s in workload.walls.items()]
                + list(workload.detail.items())
            )
            if samples
        },
    }
    if args.trace:
        extras = dict(workload.layer_extras)
        for phase, median in phase_medians(workload).items():
            extras[f"{name}.{phase}_p50_s"] = median
        values = layer_metrics(tracer, shims.missing, extras)
        document["metrics"] = {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in LAYER_METRICS
        }
        document["layer_self_s"] = layer_self_seconds(tracer)
        document["traced_wall_s"] = tracer.root_s
        document["missing_shims"] = shims.missing
        ledger = WORK / "ledgers" / f"{name}.jsonl"
        ledger.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_ledger(ledger)
        document["ledger"] = str(ledger.relative_to(ROOT))
    else:
        document["metrics"] = {
            metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
            for metric, value in end_to_end(workload).items()
        }
    return document


def result_line(document: dict) -> str:
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": fields["value"], "unit": fields["unit"]}
                for name, fields in document["metrics"].items()
            },
        }
    )


def _abort(signum, frame):
    raise TimeoutError("benchmark run exceeded its time limit")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {SRC}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != 0:
        print("error: goldens are recorded at --seed 0", file=sys.stderr)
        return 2
    from meter import pin_to_one_cpu

    args.pinned_cpu = pin_to_one_cpu()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(int(len(names) * (args.seconds + GRACE_S)))
    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    documents = []
    for name in names:
        checked = None
        if args.seed == 0 and not args.write_golden:
            checked = goldens.get(name, {})
        document = run_workload(name, args, checked)
        documents.append(document)
        for error in document["errors"]:
            print(f"{name}: {error}", file=sys.stderr)
        if args.trace:
            print(f"{name}: ledger {document['ledger']}", file=sys.stderr)
        print(result_line(document), flush=True)
    signal.alarm(0)
    if args.write_golden:
        goldens = {
            name: digests for name, digests in goldens.items()
            if name in WORKLOAD_NAMES
        }
        for document in documents:
            goldens[document["workload"]] = document["digests"]
        GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"runs": documents}, indent=2) + "\n"
        )
    return 0 if all(document["correct"] for document in documents) else 1


if __name__ == "__main__":
    raise SystemExit(main())
