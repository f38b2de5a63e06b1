"""Command-line interface to the trade-off framework.

Usage::

    python -m repro.cli power
    python -m repro.cli mpeg2 [--ntsc] [--reduced]
    python -m repro.cli explore --capacity-mbit 16 --bandwidth-gbs 0.6
    python -m repro.cli feasibility [--die-budget-mm2 203.7]
    python -m repro.cli testcost [--mbit 64]
    python -m repro.cli experiments
    python -m repro.cli verify fuzz --seed 0 --budget 200
    python -m repro.cli trace --out mpeg2.trace.json
    python -m repro.cli trace --merge run.jsonl q/ledgers/*.jsonl --out merged.json
    python -m repro.cli metrics [--format json|prom|md]
    python -m repro.cli metrics --merge a.json b.json
    python -m repro.cli report sweep.ledger.jsonl [--format json|prom|md]
    python -m repro.cli report --check-regression --history BENCH_history.jsonl
    python -m repro.cli serve --port 8765 --cache-path results.jsonl
    python -m repro.cli client submit --job-file job.json --wait
    python -m repro.cli workers start --queue /shared/queue --n 2
    python -m repro.cli workers status --queue /shared/queue [--format prom]
    python -m repro.cli top --url http://127.0.0.1:8765

Each subcommand prints the corresponding reproduction table; `explore`
runs a live design-space sweep for the given requirements; `trace` and
`metrics` run the instrumented MPEG2-decoder workload through the
observability layer; `report` renders a run-ledger summary and hosts
the benchmark-regression gate (see docs/OBSERVABILITY.md); `workers
start` runs a supervised fleet of forked queue workers (docs/RESILIENCE.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.units import MBIT


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.experiments import e01_interface_power

    print(e01_interface_power.render_table())
    return 0


def _cmd_mpeg2(args: argparse.Namespace) -> int:
    from repro.apps.mpeg2 import DecoderVariant, MPEG2MemoryBudget
    from repro.apps.video import NTSC, PAL
    from repro.experiments import e06_mpeg2

    frame = NTSC if args.ntsc else PAL
    variant = (
        DecoderVariant.REDUCED_OUTPUT
        if args.reduced
        else DecoderVariant.STANDARD
    )
    budget = MPEG2MemoryBudget(frame=frame, variant=variant)
    print(
        f"{frame.standard.value} {variant.value} decoder: "
        f"{budget.total_mbit:.2f} Mbit, "
        f"{budget.total_bandwidth_bits_per_s() / 1e6:.0f} Mbit/s, "
        f"fits 16 Mbit: {budget.fits_16_mbit}"
    )
    print()
    print(e06_mpeg2.render_table())
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.core import (
        ApplicationRequirements,
        DesignSpaceExplorer,
        Quantizer,
    )
    from repro.errors import InfeasibleError
    from repro.reporting.tables import Table

    requirements = ApplicationRequirements(
        name="cli",
        capacity_bits=int(args.capacity_mbit * MBIT),
        sustained_bandwidth_bits_per_s=args.bandwidth_gbs * 8e9,
        locality=args.locality,
    )
    result = DesignSpaceExplorer(
        batch=args.backend == "batched"
    ).explore(requirements)
    print(
        f"explored {result.n_explored} organizations, "
        f"{len(result.feasible)} feasible, frontier "
        f"{len(result.frontier)}"
    )
    if not result.feasible:
        print("no feasible embedded configuration", file=sys.stderr)
        return 1
    table = Table(
        title="quantized solutions",
        columns=["name", "configuration", "power", "area", "BW", "cost"],
    )
    try:
        named = Quantizer().named_solutions(result)
    except InfeasibleError as error:
        print(str(error), file=sys.stderr)
        return 1
    for solution in named:
        metrics = solution.metrics
        table.add_row(
            solution.name,
            metrics.label,
            f"{metrics.power_w * 1e3:.0f} mW",
            f"{metrics.area_mm2:.1f} mm^2",
            f"{metrics.sustained_bandwidth_bits_per_s / 8e9:.2f} GB/s",
            f"{metrics.unit_cost:.2f}",
        )
    print(table.render())
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    from repro.core.tradeoffs import LogicMemoryTrade
    from repro.reporting.tables import Table

    trade = LogicMemoryTrade(die_budget_mm2=args.die_budget_mm2)
    table = Table(
        title=f"logic/memory frontier on {args.die_budget_mm2:.0f} mm^2",
        columns=["logic gates", "max memory"],
    )
    for gates in (100e3, 250e3, 500e3, 750e3, 1e6, 1.5e6):
        bits = trade.max_memory_for_logic(gates)
        table.add_row(f"{gates / 1e3:.0f}k", f"{bits / MBIT:.0f} Mbit")
    print(table.render())
    return 0


def _cmd_testcost(args: argparse.Namespace) -> int:
    from repro.experiments import e09_test_cost

    print(e09_test_cost.render_table())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import run_all

    failures = 0
    for report in run_all():
        print(report.render())
        print()
        if not report.all_hold:
            failures += 1
    if failures:
        print(f"{failures} experiments have failing claims",
              file=sys.stderr)
        return 1
    print("all experiments reproduce the paper's claims")
    return 0


def _obs_run(args: argparse.Namespace, *, trace: bool):
    """Run the instrumented MPEG2 workload; return its Observability."""
    from repro.obs import Observability
    from repro.obs.workloads import mpeg2_decoder_simulator

    obs = Observability.create(trace=trace)
    simulator = mpeg2_decoder_simulator(
        cycles=args.cycles,
        warmup_cycles=args.warmup_cycles,
        load=args.load,
        obs=obs,
    )
    return obs, simulator.run()


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.merge:
        return _merge_trace(args)
    obs, result = _obs_run(args, trace=True)
    obs.trace.write(args.out)
    dropped = obs.trace.dropped_events
    print(result.summary())
    print(
        f"wrote {len(obs.trace.events)} trace events to {args.out} "
        f"({dropped} dropped)"
        + " — open with https://ui.perfetto.dev or chrome://tracing"
    )
    return 0


def _merge_trace(args: argparse.Namespace) -> int:
    """Assemble per-process ledgers/traces into one Chrome trace."""
    from repro.obs.tracemerge import write_merged_trace

    document = write_merged_trace(args.merge, args.out)
    other = document["otherData"]
    print(
        f"merged {len(other['inputs'])} file(s) into {args.out}: "
        f"{len(document['traceEvents'])} events, "
        f"trace ids {', '.join(other['trace_ids']) or '(none)'}"
        + " — open with https://ui.perfetto.dev"
    )
    if other["orphan_parents"]:
        print(
            f"warning: {len(other['orphan_parents'])} orphan parent "
            f"span(s): {', '.join(other['orphan_parents'])}",
            file=sys.stderr,
        )
        if args.strict:
            return 1
    return 0


def _snapshot_markdown(snapshot: dict) -> str:
    """Small Markdown rendering of a metrics snapshot (--format md)."""
    lines = ["# Metrics", ""]
    counters = dict(snapshot.get("counters", {}))
    counters.update(snapshot.get("gauges", {}))
    if counters:
        lines += ["| metric | value |", "|---|---|"]
        lines += [
            f"| {name} | {value} |" for name, value in sorted(counters.items())
        ]
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines += [
            "",
            "| histogram | n | mean | p50 | p95 | max |",
            "|---|---|---|---|---|---|",
        ]
        for name, hist in sorted(histograms.items()):
            lines.append(
                f"| {name} | {hist.get('count', 0)} "
                f"| {hist.get('mean', 0.0):.2f} | {hist.get('p50', 0)} "
                f"| {hist.get('p95', 0)} | {hist.get('max', 0)} |"
            )
    return "\n".join(lines) + "\n"


def _render_snapshot(snapshot: dict, fmt: str) -> str:
    import json

    if fmt == "prom":
        from repro.obs.expo import render_prometheus

        return render_prometheus(snapshot)
    if fmt == "md":
        return _snapshot_markdown(snapshot)
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    if args.merge:
        return _merge_metrics(args)
    fmt = args.format or ("json" if args.json else None)
    obs, result = _obs_run(args, trace=False)
    snapshot = obs.metrics.snapshot()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(_render_snapshot(snapshot, fmt or "json"))
        print(f"wrote metrics snapshot to {args.out}")
    if fmt is not None:
        print(_render_snapshot(snapshot, fmt), end="")
    else:
        print(result.summary())
        for name, value in snapshot["counters"].items():
            print(f"  {name}: {value}")
        for name, hist in snapshot["histograms"].items():
            print(
                f"  {name}: n={hist['count']} mean={hist['mean']:.1f} "
                f"p95={hist['p95']:.1f} max={hist['max']}"
            )
    return 0


def _merge_metrics(args: argparse.Namespace) -> int:
    """Aggregate saved metrics snapshots offline (lossless merge)."""
    import json

    from repro.errors import ConfigurationError
    from repro.obs.aggregate import merge_snapshots

    snapshots = []
    for path in args.merge:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"cannot read metrics snapshot {path}: {error}"
            ) from error
    merged = merge_snapshots(*snapshots)
    rendered = json.dumps(merged, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(
            f"merged {len(snapshots)} snapshots into {args.out}"
        )
    else:
        print(rendered)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.reporting.runreport import (
        check_regression,
        load_history,
        load_ledger,
        render_html,
        render_markdown,
        render_regression,
        summarize_ledger,
    )

    if args.ledger is None and not args.check_regression:
        raise ConfigurationError(
            "repro report needs a LEDGER file and/or --check-regression"
        )
    if args.ledger is not None:
        import json

        summary = summarize_ledger(load_ledger(args.ledger))
        fmt = args.format or "md"
        if fmt == "json":
            rendered = json.dumps(summary, indent=2, sort_keys=True) + "\n"
        elif fmt == "prom":
            # Run-level gauges, in the same exposition format
            # `/v1/metrics` serves.
            from repro.obs.expo import render_prometheus

            extra = [
                {"name": "report.events", "value": summary["n_events"]},
                {"name": "report.wall_s", "value": summary["wall_s"]},
            ]
            for kind, count in summary["resilience"].items():
                extra.append(
                    {
                        "name": "report.resilience",
                        "value": count,
                        "type": "counter",
                        "labels": {"kind": kind},
                    }
                )
            rendered = render_prometheus({}, extra=extra)
        else:
            rendered = render_markdown(summary, top=args.top)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            print(f"wrote {args.out}")
        if args.html:
            with open(args.html, "w", encoding="utf-8") as handle:
                handle.write(render_html(summary, top=args.top))
            print(f"wrote {args.html}")
        if not args.out and not args.html:
            print(rendered, end="")
    if args.check_regression:
        verdict = check_regression(
            load_history(args.history),
            threshold=args.threshold,
            window=args.window,
        )
        print(render_regression(verdict, args.threshold))
        if not verdict["ok"]:
            return 1
    return 0


def _add_obs_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cycles", type=int, default=8_000)
    parser.add_argument("--warmup-cycles", type=int, default=1_000)
    parser.add_argument(
        "--load",
        type=float,
        default=1.2,
        help="offered load as a fraction of interface peak",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Embedded DRAM architectural trade-offs (Wehn & Hein, "
            "DATE 1998) — reproduction toolkit"
        ),
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise configuration/simulation errors as full "
        "tracebacks instead of the one-line message",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    power = sub.add_parser("power", help="E1 power comparison table")
    power.set_defaults(func=_cmd_power)

    mpeg2 = sub.add_parser("mpeg2", help="MPEG2 decoder memory budget")
    mpeg2.add_argument("--ntsc", action="store_true",
                       help="NTSC instead of PAL")
    mpeg2.add_argument("--reduced", action="store_true",
                       help="reduced-output variant")
    mpeg2.set_defaults(func=_cmd_mpeg2)

    explore = sub.add_parser("explore", help="design-space sweep")
    explore.add_argument("--capacity-mbit", type=float, required=True)
    explore.add_argument("--bandwidth-gbs", type=float, required=True,
                         help="sustained bandwidth in GB/s")
    explore.add_argument("--locality", type=float, default=0.7)
    explore.add_argument(
        "--backend",
        choices=("batched", "scalar"),
        default="batched",
        help="evaluation core: 'batched' evaluates the grid as numpy "
        "array lanes (bit-identical to 'scalar', the per-point "
        "reference loop)",
    )
    explore.set_defaults(func=_cmd_explore)

    feasibility = sub.add_parser(
        "feasibility", help="logic/memory die frontier"
    )
    feasibility.add_argument(
        "--die-budget-mm2", type=float, default=203.7
    )
    feasibility.set_defaults(func=_cmd_feasibility)

    testcost = sub.add_parser("testcost", help="E9 test economics table")
    testcost.add_argument("--mbit", type=float, default=64.0)
    testcost.set_defaults(func=_cmd_testcost)

    experiments = sub.add_parser(
        "experiments", help="run all E1-E11 reproduction reports"
    )
    experiments.set_defaults(func=_cmd_experiments)

    partition = sub.add_parser(
        "partition",
        help="SRAM/eDRAM/off-chip partitioning demo (MPEG2 blocks)",
    )
    partition.add_argument("--area-budget-mm2", type=float, default=25.0)
    partition.set_defaults(func=_cmd_partition)

    trace = sub.add_parser(
        "trace",
        help="run the MPEG2-decoder workload and write a Chrome "
        "trace-event JSON (Perfetto-loadable), or --merge distributed "
        "ledgers into one",
    )
    trace.add_argument("--out", default="mpeg2.trace.json")
    trace.add_argument(
        "--merge",
        nargs="+",
        metavar="LEDGER",
        help="skip the workload: merge these ledger JSONL / trace JSON "
        "files (coordinator + workers of a distributed run) into one "
        "Chrome trace at --out, with cross-process span parenting",
    )
    trace.add_argument(
        "--strict",
        action="store_true",
        help="with --merge: exit 1 if any span references a parent no "
        "input defines (broken cross-process parent chain)",
    )
    _add_obs_workload_args(trace)
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="run the MPEG2-decoder workload and print/export the "
        "metrics snapshot",
    )
    metrics.add_argument("--out", help="write the snapshot here")
    metrics.add_argument(
        "--json", action="store_true",
        help="print the snapshot as JSON (same as --format json)",
    )
    metrics.add_argument(
        "--format",
        choices=("json", "prom", "md"),
        default=None,
        help="output format: json (snapshot), prom (Prometheus text "
        "exposition), md (Markdown tables); default is the plain text "
        "summary",
    )
    metrics.add_argument(
        "--merge",
        nargs="+",
        metavar="SNAPSHOT",
        help="skip the workload: aggregate these saved snapshot JSONs "
        "(lossless histogram merge) and print/write the result",
    )
    _add_obs_workload_args(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    report = sub.add_parser(
        "report",
        help="render a run-ledger summary (Markdown/HTML) and run the "
        "benchmark-regression gate",
    )
    report.add_argument(
        "ledger", nargs="?", help="run-ledger JSONL file to summarize"
    )
    report.add_argument("--out", help="write the rendered report here")
    report.add_argument("--html", help="write a self-contained HTML here")
    report.add_argument(
        "--format",
        choices=("md", "json", "prom"),
        default=None,
        help="report format: md (default), json (the summary dict), "
        "prom (run-level gauges as Prometheus text)",
    )
    report.add_argument(
        "--top", type=int, default=10,
        help="slowest chunks / quarantines to list (default 10)",
    )
    report.add_argument(
        "--check-regression",
        action="store_true",
        help="gate the newest BENCH_history.jsonl entry against its "
        "rolling baseline; exit 1 on regression",
    )
    report.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="bench history JSONL (default: ./BENCH_history.jsonl)",
    )
    report.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="fractional slowdown that fails the gate (0.3 = +30%%)",
    )
    report.add_argument(
        "--window",
        type=int,
        default=5,
        help="rolling-baseline size: prior same-mode, same-host entries "
        "(default 5)",
    )
    report.set_defaults(func=_cmd_report)

    verify = sub.add_parser(
        "verify",
        help="differential verification (fuzz, diff); forwards to "
        "`python -m repro.verify`",
    )
    verify.add_argument("verify_args", nargs=argparse.REMAINDER)
    verify.set_defaults(func=_cmd_verify)

    inject = sub.add_parser(
        "inject",
        help="fault-injection campaigns; forwards to "
        "`python -m repro.inject`",
    )
    inject.add_argument("inject_args", nargs=argparse.REMAINDER)
    inject.set_defaults(func=_cmd_inject)

    serve = sub.add_parser(
        "serve",
        help="run the exploration service (JSON batch API; "
        "see docs/SERVICE.md)",
    )
    _add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="talk to a running `repro serve` instance; "
        "forwards to `python -m repro.serve`",
    )
    client.add_argument("client_args", nargs=argparse.REMAINDER)
    client.set_defaults(func=_cmd_client)

    workers = sub.add_parser(
        "workers",
        help="work-queue sweep workers: join or inspect a shared "
        "queue directory (see docs/DISTRIBUTED.md)",
    )
    workers_sub = workers.add_subparsers(
        dest="workers_command", required=True
    )
    start = workers_sub.add_parser(
        "start",
        help="run a supervised fleet of forked workers against a queue "
        "directory — on this machine or any machine sharing the "
        "directory: crashed workers respawn (bounded backoff), frozen "
        "ones are killed and respawned, SIGTERM/Ctrl-C drains "
        "gracefully (see docs/RESILIENCE.md)",
    )
    start.add_argument(
        "--queue", required=True, help="work-queue directory"
    )
    start.add_argument(
        "--n", type=int, default=1,
        help="worker processes to run (default 1)",
    )
    start.add_argument(
        "--max-idle-s", type=float, default=30.0,
        help="a worker exits after this long with nothing to claim "
        "(default 30)",
    )
    start.add_argument(
        "--heartbeat-timeout-s", type=float, default=10.0,
        help="a live worker silent this long is considered frozen "
        "and killed (default 10)",
    )
    start.add_argument(
        "--max-respawns", type=int, default=5,
        help="crash respawn budget per worker slot (default 5); the "
        "command exits 1 if a slot spends it",
    )
    start.add_argument(
        "--backoff-s", type=float, default=0.2,
        help="initial crash respawn backoff, doubled per respawn "
        "(default 0.2)",
    )
    start.set_defaults(func=_cmd_workers_start)
    status = workers_sub.add_parser(
        "status",
        help="print a JSON snapshot of the queue: pending/leased/"
        "completed chunks, expired leases, worker heartbeats",
    )
    status.add_argument(
        "--queue", required=True, help="work-queue directory"
    )
    status.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="json (default) or prom (Prometheus text: chunk counts, "
        "lease ages, worker heartbeat ages)",
    )
    status.set_defaults(func=_cmd_workers_status)

    top = sub.add_parser(
        "top",
        help="live TTY dashboard over a running `repro serve` "
        "instance (jobs, in-flight, per-workload latency); degrades "
        "to periodic plain text when stdout is not a TTY",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="service base URL (default http://127.0.0.1:8765)",
    )
    top.add_argument(
        "--interval-s", type=float, default=1.0,
        help="seconds between polls (default 1.0)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (scripting/CI)",
    )
    top.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N frames (default: run until Ctrl-C)",
    )
    top.set_defaults(func=_cmd_top)
    return parser


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.cli import main as verify_main

    return verify_main(args.verify_args)


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.inject.cli import main as inject_main

    return inject_main(args.inject_args)


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.serve.cli import add_serve_arguments

    add_serve_arguments(parser)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.cli import run_serve

    return run_serve(args)


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.cli import client_main

    return client_main(args.client_args)


def _cmd_workers_start(args: argparse.Namespace) -> int:
    from repro.core.supervisor import WorkerSupervisor

    fleet = WorkerSupervisor(
        args.queue,
        n_workers=args.n,
        max_respawns=args.max_respawns,
        backoff_s=args.backoff_s,
        heartbeat_timeout_s=args.heartbeat_timeout_s,
        max_idle_s=args.max_idle_s,
    )
    print(f"starting {args.n} worker(s) on {args.queue}", flush=True)
    stats = fleet.run()
    print(
        "workers exited: "
        f"spawned={stats['spawned']} respawned={stats['respawned']} "
        f"killed_frozen={stats['killed_frozen']} "
        f"drained={stats['drained']} spent={stats['spent']}"
    )
    return 1 if stats["spent"] else 0


def _cmd_workers_status(args: argparse.Namespace) -> int:
    import json

    from repro.core.executor import WorkQueue
    from repro.errors import ConfigurationError
    from pathlib import Path

    if not Path(args.queue).is_dir():
        raise ConfigurationError(
            f"no work-queue directory at {args.queue}"
        )
    status = WorkQueue(args.queue).status()
    if getattr(args, "format", "json") == "prom":
        from repro.obs.expo import render_prometheus, workqueue_samples

        print(render_prometheus({}, extra=workqueue_samples(status)), end="")
    else:
        print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import top_loop
    from repro.serve.client import ServeClient

    iterations = 1 if args.once else args.iterations
    with ServeClient(args.url) as client:
        top_loop(
            client.metrics_text,
            sys.stdout,
            interval_s=args.interval_s,
            iterations=iterations,
            title=f"repro top — {args.url}",
        )
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.core.partition import MemoryBlock, Partitioner
    from repro.errors import InfeasibleError
    from repro.reporting.tables import Table

    blocks = [
        MemoryBlock("bitstream buffer", int(1.75 * MBIT), 0.03e9),
        MemoryBlock("frame stores", int(9.5 * MBIT), 0.45e9, 60.0),
        MemoryBlock("display buffer", int(4.75 * MBIT), 0.25e9, 60.0),
        MemoryBlock("mb line buffer", int(0.04 * MBIT), 1.5e9, 12.0),
    ]
    try:
        plan = Partitioner(
            area_budget_mm2=args.area_budget_mm2
        ).partition(blocks)
    except InfeasibleError as error:
        print(str(error), file=sys.stderr)
        return 1
    table = Table(
        title=f"partition at {args.area_budget_mm2:.0f} mm^2 budget",
        columns=["block", "size", "technology"],
    )
    for block in blocks:
        table.add_row(
            block.name,
            f"{block.size_mbit:.2f} Mbit",
            plan.assignment[block.name].value,
        )
    print(table.render())
    print(
        f"area {plan.area_mm2:.1f} mm^2, power {plan.power_w * 1e3:.0f} mW, "
        f"cost {plan.unit_cost:.2f}, on-chip "
        f"{plan.on_chip_fraction():.0%}"
    )
    return 0


def main(argv=None) -> int:
    from repro.errors import ConfigurationError, SimulationError

    parser = build_parser()
    forwarded = list(sys.argv[1:] if argv is None else argv)
    if forwarded and forwarded[0] == "client":
        # Forward verbatim, bypassing argparse's REMAINDER: a leading
        # option (`repro client --url ... submit`) would otherwise be
        # rejected by the root parser before the remainder captures it.
        from repro.serve.cli import client_main

        return client_main(forwarded[1:])
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Long-running subcommands (serve, workers) are routinely
        # stopped with Ctrl-C; that is an outcome, not a crash — one
        # line, conventional 130 exit, never a stack trace.
        print("repro: interrupted", file=sys.stderr)
        return 130
    except (ConfigurationError, SimulationError) as error:
        if args.debug:
            raise
        print(
            f"repro: error: [{type(error).__name__}] {error}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
