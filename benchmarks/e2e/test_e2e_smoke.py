"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload once at its smallest size (``--seconds 0``: the
minimum number of ops), untraced and traced, at seed 0, and checks that

* the result line carries exactly the metric names and units of
  BENCHMARK.json (end-to-end untraced, per-layer traced);
* the seed-0 golden fingerprints hold (the run reports correct and
  exits 0), E09's report included;
* the traced ledger merges with ``repro trace --merge --strict`` and
  has no orphan parent spans;
* the per-layer self times plus the unattributed remainder add up to
  the traced wall within 1%.

It also checks ``compare.py``'s verdicts on made-up result files, the
reference-loop scaling of ``meter.py``, and that the benchmark refuses
to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_compare(*args):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "compare.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def expected(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def verdicts(report: str) -> dict:
    """End-to-end metric name -> verdict, from compare.py's report."""
    names = expected("end_to_end")
    found = {}
    for line in report.splitlines():
        words = line.split()
        if line.startswith("  ") and words and words[0] in names:
            found[words[0]] = words[-1]
    return found


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, tmp_path):
    documents = {}
    for trace in ("0", "1"):
        out = tmp_path / f"{workload}-{trace}.json"
        args = [
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", trace, "--out", str(out),
        ]
        if workload == "paper" and trace == "0":
            args.append("--all-experiments")
        result = run_bench(*args)
        assert result.returncode == 0, result.stderr
        line = json.loads(result.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        section = "per_layer" if trace == "1" else "end_to_end"
        assert {
            name: fields["unit"] for name, fields in line["metrics"].items()
        } == expected(section)
        documents[trace] = json.loads(out.read_text())["runs"][0]
    for fields in documents["0"]["metrics"].values():
        assert fields["value"] > 0
    if workload == "paper":
        assert "E9" in documents["0"]["digests"]

    traced = documents["1"]
    merged_path = tmp_path / "merged.json"
    merge = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "trace", "--merge",
            str(ROOT / traced["ledger"]), "--out", str(merged_path),
            "--strict",
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert merge.returncode == 0, merge.stderr
    merged = json.loads(merged_path.read_text())
    assert merged["otherData"]["orphan_parents"] == []

    wall = traced["traced_wall_s"]
    attributed = sum(traced["layer_self_s"].values())
    assert wall > 0
    assert abs(attributed - wall) <= 0.01 * wall


def test_compare_same_runs_is_unchanged(tmp_path):
    out = tmp_path / "sim.json"
    result = run_bench(
        "--workload", "sim_load", "--seed", "0", "--seconds", "0",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    compare = run_compare(out, "--", out)
    assert compare.returncode == 0, compare.stdout + compare.stderr
    found = verdicts(compare.stdout)
    assert set(found) == set(expected("end_to_end"))
    assert set(found.values()) == {"unchanged"}
    assert "MOVED" not in compare.stdout


def synthetic_runs(scale: float) -> dict:
    """Four made-up untraced runs whose parent spread is wider than any
    bound (IQR / median ~0.5), every value times ``scale``."""
    runs = []
    for seed, value in enumerate((1.0, 1.6, 0.8, 1.3)):
        runs.append(
            {
                "workload": "paper",
                "seed": seed,
                "trace": False,
                "attempted": 10,
                "failed": 0,
                "digests": {},
                "metrics": {
                    metric["name"]: {
                        "value": value * scale, "unit": metric["unit"]
                    }
                    for metric in BENCHMARK["end_to_end"]
                },
            }
        )
    return {"runs": runs}


def test_compare_wide_parent_spread_still_reports_worse(tmp_path):
    parent, slower = tmp_path / "parent.json", tmp_path / "slower.json"
    parent.write_text(json.dumps(synthetic_runs(1.0)))
    slower.write_text(json.dumps(synthetic_runs(1.5)))
    compare = run_compare(parent, "--", slower)
    assert compare.returncode == 1, compare.stdout
    assert set(verdicts(compare.stdout).values()) == {"worse"}

    same = run_compare(parent, "--", parent)
    assert same.returncode == 0, same.stdout
    assert set(verdicts(same.stdout).values()) == {"unresolved"}


class SleepReference:
    nominal_s = 0.007

    def __call__(self):
        time.sleep(0.02)


def test_meter_scales_by_the_bracketing_reference():
    from meter import Meter, LoopbackReference, PythonReference

    clock = Meter(SleepReference())
    with clock.sample() as sample:
        time.sleep(0.04)
    before, after = clock.ref_times
    assert sample.norm_s == pytest.approx(
        sample.wall_s * 0.007 / ((before + after) / 2)
    )
    # A sample right after another reuses its closing reference.
    with clock.sample():
        pass
    assert len(clock.ref_times) == 3
    for reference in (PythonReference(), LoopbackReference()):
        reference()
        reference.close()


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "benchmarks/e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    result = run_bench(
        "--workload", "paper", "--seed", "0", "--seconds", "1",
        cwd=tmp_path, timeout=180,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
