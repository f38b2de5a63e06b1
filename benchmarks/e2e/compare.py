"""Compare two sets of benchmark result files: parent runs and change runs.

Usage::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --out`` document.  For every (end-to-end metric,
workload) the report gives the parent's and the change's median and
interquartile range, the share of pairs the change wins (pairs match by
seed, else by position) and a verdict against the metric's bound in
BENCHMARK.json:

* ``worse``: the change's median is worse than the parent's by more
  than the bound, however wide either side's spread;
* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
* ``unresolved``: neither of the above, and the parent's own spread is
  wider than the bound, so "unchanged" cannot be told from noise;
* ``unchanged``: none of the above.

It also prints the parent and change medians of every ``detail``
figure (no verdict), compares the failed share of each workload, and
flags every simulated statistic (``controller.*`` of traced runs) and
every output fingerprint that differs between runs of the same workload
and seed; those must repeat exactly.  Exits 1 when any verdict is
``worse`` or anything that must repeat moved.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(paths) -> list:
    runs = []
    for path in paths:
        runs += json.loads(Path(path).read_text(encoding="utf-8"))["runs"]
    return runs


def pairs(parent: list, change: list) -> list:
    """(parent run, change run) pairs, matched by seed when possible."""
    by_seed = {run["seed"]: run for run in change}
    if len(by_seed) == len(change) and all(
        run["seed"] in by_seed for run in parent
    ):
        return [(run, by_seed[run["seed"]]) for run in parent]
    return list(zip(parent, change))


def verdict(metric: dict, parent: list, change: list, matched: list) -> dict:
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    a = [run["metrics"][name]["value"] for run in parent]
    b = [run["metrics"][name]["value"] for run in change]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)

    def better(x: float, y: float) -> bool:
        return x < y if lower else x > y

    wins = sum(
        1 for pa, pb in matched
        if better(pb["metrics"][name]["value"], pa["metrics"][name]["value"])
    )
    win_share = wins / len(matched) if matched else 0.0
    worse_by = (b_med - a_med) / a_med * (1 if lower else -1)
    if worse_by > bound:
        outcome = "worse"
    elif (
        win_share >= 0.9
        and better(b_med, a_med)
        and abs(b_med - a_med) > a_q3 - a_q1
    ):
        outcome = "better"
    elif (a_q3 - a_q1) / a_med > bound:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent_median": a_med,
        "parent_iqr": a_q3 - a_q1,
        "change_median": b_med,
        "change_iqr": b_q3 - b_q1,
        "win_share": win_share,
        "worse_by": worse_by,
        "verdict": outcome,
    }


def detail_lines(parent: list, change: list) -> list:
    """Parent -> change medians of the per-run ``detail`` medians."""
    lines = []
    keys = sorted(
        {key for run in parent for key in run.get("detail", {})}
        & {key for run in change for key in run.get("detail", {})}
    )
    for key in keys:
        a = quartiles(
            [r["detail"][key]["median"] for r in parent if key in r["detail"]]
        )[1]
        b = quartiles(
            [r["detail"][key]["median"] for r in change if key in r["detail"]]
        )[1]
        moved = f"{(b - a) / a:+.2%}" if a else "n/a"
        lines.append(f"  detail {key}: {a:.6g} -> {b:.6g} ({moved})")
    return lines


def moved_outputs(parent: list, change: list) -> list:
    """Simulated statistics and fingerprints that differ across runs of
    one (workload, seed)."""
    seen: dict = defaultdict(dict)
    moved = []
    for run in parent + change:
        key = (run["workload"], run["seed"])
        values = dict(run.get("digests", {}))
        if run["trace"]:
            values.update(
                (name, fields["value"])
                for name, fields in run["metrics"].items()
                if name.startswith("controller.")
            )
        for name, value in values.items():
            known = seen[key].setdefault(name, value)
            if known != value:
                moved.append(f"{key[0]} seed {key[1]} {name}: {known} -> {value}")
    return moved


def compare(parent_runs: list, change_runs: list, benchmark: dict) -> tuple:
    lines = []
    bad = False
    workloads = sorted({run["workload"] for run in parent_runs + change_runs})
    for workload in workloads:
        a_all = [r for r in parent_runs if r["workload"] == workload]
        b_all = [r for r in change_runs if r["workload"] == workload]
        a_failed = sum(r["failed"] for r in a_all)
        b_failed = sum(r["failed"] for r in b_all)
        a_share = a_failed / max(1, sum(r["attempted"] for r in a_all))
        b_share = b_failed / max(1, sum(r["attempted"] for r in b_all))
        lines.append(
            f"{workload}: failed share {a_share:.4%} -> {b_share:.4%}"
        )
        bad = bad or b_share > a_share
        a = [r for r in a_all if not r["trace"]]
        b = [r for r in b_all if not r["trace"]]
        if not a or not b:
            lines.append("  (no untraced runs on one side)")
            continue
        matched = pairs(a, b)
        for metric in benchmark["end_to_end"]:
            result = verdict(metric, a, b, matched)
            bad = bad or result["verdict"] == "worse"
            lines.append(
                f"  {metric['name']:<12} parent {result['parent_median']:.6g}"
                f" (IQR {result['parent_iqr']:.3g}, n={len(a)})  change "
                f"{result['change_median']:.6g} (IQR "
                f"{result['change_iqr']:.3g}, n={len(b)})  wins "
                f"{result['win_share']:.0%}  worse by "
                f"{result['worse_by']:+.2%} (bound {metric['bound']:.0%})"
                f"  {result['verdict']}"
            )
        lines += detail_lines(a, b)
    moved = moved_outputs(parent_runs, change_runs)
    lines += [f"MOVED {entry}" for entry in moved]
    return "\n".join(lines), bad or bool(moved)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    parent, change = argv[:split], argv[split + 1:]
    if not parent or not change:
        print("error: need result files on both sides of --", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    report, bad = compare(load_runs(parent), load_runs(change), benchmark)
    print(report)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
