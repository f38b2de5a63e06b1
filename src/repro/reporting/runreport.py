"""Run reports and the benchmark-regression gate.

Turns a :class:`~repro.obs.ledger.RunLedger` JSONL file into a
self-contained human-readable summary — Markdown or single-file HTML —
answering the questions a sweep operator actually asks: what ran, where
the time went (phase waterfall), which chunks were slowest, what the
resilience machinery did (pool fallbacks, quarantines)
and how many events of each kind the run wrote.

The same module owns the perf-history side of the story:
``benchmarks/bench_perf.py`` appends one JSONL entry per run to
``BENCH_history.jsonl`` (via :func:`append_history`) and
``repro report --check-regression`` replays that history through
:func:`check_regression`, failing (non-zero exit) when any
``*_seconds`` metric of the newest entry is more than ``threshold``
above the median of the rolling baseline — the last ``window`` prior
entries of the same mode recorded on the same host.  Wall-clock
benchmarks are noisy; comparing
against a median window rather than the single previous run is what
keeps the gate useful instead of flaky.
"""

from __future__ import annotations

import html as _html
import json
import statistics
import time
from pathlib import Path

from repro.errors import ConfigurationError

#: Event kinds counted as resilience decisions in the summary.
RESILIENCE_KINDS = ("fallback", "quarantine")

#: Default regression threshold: fail beyond +30% over the baseline.
DEFAULT_THRESHOLD = 0.30

#: Default rolling-baseline window (prior same-mode, same-host entries).
DEFAULT_WINDOW = 5


# -- ledger loading ----------------------------------------------------------


def load_ledger(path: str | Path) -> list:
    """Parse a ledger JSONL file, tolerating a torn trailing line."""
    ledger_path = Path(path)
    if not ledger_path.exists():
        raise ConfigurationError(f"no ledger at {ledger_path}")
    events = []
    with open(ledger_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from an interrupted writer
            if isinstance(record, dict) and "kind" in record:
                events.append(record)
    if not events:
        raise ConfigurationError(f"{ledger_path} holds no ledger events")
    return events


def summarize_ledger(events: list) -> dict:
    """Digest a ledger event stream into report-ready structure.

    Returns a plain dict (JSON-able) with the run table, span
    waterfall, slowest chunks, resilience counts, quarantine details
    and event counts by kind.
    """
    if not events:
        raise ConfigurationError("cannot summarize an empty ledger")
    times = [e["t"] for e in events if isinstance(e.get("t"), (int, float))]
    t0 = min(times) if times else 0.0
    t1 = max(times) if times else 0.0
    provenance: dict = {}
    counts: dict = {}
    runs: list = []
    open_runs: list = []
    spans: list = []
    span_starts: dict = {}
    chunks: list = []
    quarantines: list = []
    resumes = 0
    for event in events:
        kind = event["kind"]
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "ledger_open":
            provenance = {
                "environment": event.get("environment", {}),
                "git": event.get("git", {}),
            }
        elif kind == "resume":
            resumes += 1
        elif kind == "run_start":
            open_runs.append(
                {
                    "workload": event.get("workload", "?"),
                    "start_offset_s": round(event.get("t", t0) - t0, 6),
                    "detail": {
                        k: v
                        for k, v in event.items()
                        if k not in ("id", "t", "run", "kind", "workload")
                    },
                    "status": "unfinished",
                }
            )
            runs.append(open_runs[-1])
        elif kind == "run_end" and open_runs:
            run = open_runs.pop()
            run["status"] = event.get("status", "?")
            run["s"] = event.get("s")
            for key in ("n_ok", "n_failed", "n_explored", "n_frontier",
                        "n_maps"):
                if key in event:
                    run[key] = event[key]
        elif kind == "span_start":
            span_starts[event["id"]] = event
        elif kind == "span_end":
            start = span_starts.pop(event.get("span"), None)
            spans.append(
                {
                    "name": event.get("name", "?"),
                    "start_offset_s": round(
                        (start.get("t", t0) if start else t0) - t0, 6
                    ),
                    "s": event.get("s", 0.0),
                }
            )
        elif kind == "chunk":
            chunks.append(
                {
                    "index": event.get("index"),
                    "size": event.get("size"),
                    "s": event.get("s", 0.0),
                    "failed": event.get("failed", 0),
                }
            )
        elif kind == "quarantine":
            quarantines.append(
                {
                    "index": event.get("index"),
                    "parameters": event.get("parameters"),
                    "error": event.get("error"),
                }
            )
    chunks.sort(key=lambda c: c["s"], reverse=True)
    trace_ids = sorted(
        {e.get("trace_id") for e in events if e.get("trace_id")}
    )
    return {
        "run_ids": sorted({e.get("run") for e in events if e.get("run")}),
        # Distributed-trace identity: one id for a traced run (the link
        # into the `repro trace --merge` output), empty when tracing
        # was off.
        "trace_ids": trace_ids,
        "trace_id": trace_ids[0] if len(trace_ids) == 1 else None,
        "n_events": len(events),
        "wall_s": round(t1 - t0, 6),
        "started_at": t0,
        "resumes": resumes,
        "provenance": provenance,
        "runs": runs,
        "spans": spans,
        "chunks": chunks,
        "quarantines": quarantines,
        "resilience": {
            kind: counts.get(kind, 0) for kind in RESILIENCE_KINDS
        },
        "events_by_kind": dict(sorted(counts.items())),
    }


# -- rendering ---------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.6g}"
    return str(value)


def _bar(fraction: float, width: int = 24) -> str:
    filled = max(0, min(width, round(fraction * width)))
    return "#" * filled + "." * (width - filled)


def _md_table(headers: list, rows: list) -> list:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(cell) for cell in row) + " |")
    return lines


def job_report_markdown(events: list, top: int = 10) -> str:
    """Markdown report straight from in-memory ledger events.

    The exploration service's report endpoint: a served job's
    :class:`~repro.obs.ledger.MemoryLedger` tap holds the same event
    stream a file ledger would, so the existing summarize/render
    pipeline applies unchanged — no JSONL round trip.
    """
    return render_markdown(summarize_ledger(events), top=top)


def render_markdown(summary: dict, top: int = 10) -> str:
    """Self-contained Markdown run report."""
    lines = ["# Run report", ""]
    lines.append(
        f"run {', '.join(summary['run_ids']) or '?'} — "
        f"{summary['n_events']} events over {summary['wall_s']:.3f} s"
        + (f", {summary['resumes']} resume(s)" if summary["resumes"] else "")
    )
    if summary.get("trace_ids"):
        lines.append(
            f"trace {', '.join(summary['trace_ids'])} — assemble the "
            "full distributed timeline with `repro trace --merge "
            "LEDGER...`"
        )
    env = summary["provenance"].get("environment", {})
    git = summary["provenance"].get("git", {})
    if env or git:
        lines += ["", "## Provenance", ""]
        rows = [(k, env[k]) for k in sorted(env) if k != "argv"]
        if git:
            rows.append(("git commit", git.get("commit", "?")))
            rows.append(("git dirty", git.get("dirty", "?")))
        lines += _md_table(["field", "value"], rows)
    if summary["runs"]:
        lines += ["", "## Runs", ""]
        rows = []
        for run in summary["runs"]:
            outcome = "/".join(
                str(run[k])
                for k in ("n_ok", "n_failed", "n_explored", "n_maps")
                if k in run
            )
            rows.append(
                (
                    run["workload"],
                    run["status"],
                    outcome or "-",
                    f"{run.get('s', 0.0):.4f}" if "s" in run else "-",
                )
            )
        lines += _md_table(["workload", "status", "points", "seconds"], rows)
    if summary["spans"]:
        lines += ["", "## Phase waterfall", ""]
        longest = max(span["s"] for span in summary["spans"]) or 1.0
        rows = [
            (
                span["name"],
                f"{span['start_offset_s']:.4f}",
                f"{span['s']:.4f}",
                f"`{_bar(span['s'] / longest)}`",
            )
            for span in summary["spans"]
        ]
        lines += _md_table(["phase", "start", "seconds", ""], rows)
    if summary["chunks"]:
        lines += ["", f"## Slowest chunks (top {top})", ""]
        rows = [
            (chunk["index"], chunk["size"], f"{chunk['s']:.4f}",
             chunk["failed"])
            for chunk in summary["chunks"][:top]
        ]
        lines += _md_table(["chunk", "points", "seconds", "failed"], rows)
    lines += ["", "## Resilience", ""]
    lines += _md_table(
        ["event", "count"],
        sorted(summary["resilience"].items()),
    )
    if summary["quarantines"]:
        lines += ["", f"### Quarantined points (top {top})", ""]
        rows = [
            (q["index"], json.dumps(q["parameters"]), q["error"])
            for q in summary["quarantines"][:top]
        ]
        lines += _md_table(["index", "parameters", "error"], rows)
    lines += ["", "## Events by kind", ""]
    lines += _md_table(
        ["kind", "count"], sorted(summary["events_by_kind"].items())
    )
    return "\n".join(lines) + "\n"


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       color: #1a2330; max-width: 60em; }
h1 { border-bottom: 2px solid #2a6fb0; padding-bottom: 0.2em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #c8d2dc; padding: 0.3em 0.7em;
         text-align: left; font-size: 0.92em; }
th { background: #eef3f8; }
.bar { background: #2a6fb0; height: 0.8em; display: inline-block; }
.muted { color: #68788c; font-size: 0.9em; }
"""


def _html_table(headers: list, rows: list) -> list:
    parts = ["<table><tr>"]
    parts += [f"<th>{_html.escape(str(h))}</th>" for h in headers]
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for cell in row:
            text = cell if isinstance(cell, str) and cell.startswith(
                "<span"
            ) else _html.escape(_fmt(cell))
            parts.append(f"<td>{text}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return parts


def render_html(summary: dict, top: int = 10) -> str:
    """Self-contained single-file HTML run report (no external assets)."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>Run report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Run report</h1>",
        f"<p class='muted'>run {_html.escape(', '.join(summary['run_ids']))}"
        f" &mdash; {summary['n_events']} events over "
        f"{summary['wall_s']:.3f}&nbsp;s"
        + (
            f", {summary['resumes']} resume(s)" if summary["resumes"] else ""
        )
        + "</p>",
    ]
    env = summary["provenance"].get("environment", {})
    git = summary["provenance"].get("git", {})
    if env or git:
        parts.append("<h2>Provenance</h2>")
        rows = [(k, env[k]) for k in sorted(env) if k != "argv"]
        if git:
            rows.append(("git commit", git.get("commit", "?")))
            rows.append(("git dirty", git.get("dirty", "?")))
        parts += _html_table(["field", "value"], rows)
    if summary["runs"]:
        parts.append("<h2>Runs</h2>")
        rows = [
            (
                run["workload"],
                run["status"],
                f"{run.get('s', 0.0):.4f}" if "s" in run else "-",
            )
            for run in summary["runs"]
        ]
        parts += _html_table(["workload", "status", "seconds"], rows)
    if summary["spans"]:
        parts.append("<h2>Phase waterfall</h2>")
        longest = max(span["s"] for span in summary["spans"]) or 1.0
        rows = []
        for span in summary["spans"]:
            width = max(2, round(240 * span["s"] / longest))
            rows.append(
                (
                    span["name"],
                    f"{span['start_offset_s']:.4f}",
                    f"{span['s']:.4f}",
                    f"<span class='bar' style='width:{width}px'></span>",
                )
            )
        parts += _html_table(["phase", "start", "seconds", ""], rows)
    if summary["chunks"]:
        parts.append(f"<h2>Slowest chunks (top {top})</h2>")
        rows = [
            (chunk["index"], chunk["size"], f"{chunk['s']:.4f}",
             chunk["failed"])
            for chunk in summary["chunks"][:top]
        ]
        parts += _html_table(["chunk", "points", "seconds", "failed"], rows)
    parts.append("<h2>Resilience</h2>")
    parts += _html_table(
        ["event", "count"], sorted(summary["resilience"].items())
    )
    if summary["quarantines"]:
        parts.append(f"<h3>Quarantined points (top {top})</h3>")
        rows = [
            (q["index"], json.dumps(q["parameters"]), q["error"])
            for q in summary["quarantines"][:top]
        ]
        parts += _html_table(["index", "parameters", "error"], rows)
    parts.append("</body></html>")
    return "".join(parts)


# -- bench history + regression gate -----------------------------------------


def history_entry(
    report_dict: dict,
    mode: str,
    commit: str | None = None,
    timestamp: float | None = None,
) -> dict:
    """One BENCH_history.jsonl line: numeric metrics of a bench run.

    ``host`` is the environment fingerprint without ``argv``: the
    regression gate compares only rows from the same host.
    """
    from repro.obs.ledger import environment_fingerprint

    host = environment_fingerprint()
    del host["argv"]
    sections = report_dict.get("sections", {})
    if not isinstance(sections, dict):
        raise ConfigurationError("bench report has no sections dict")
    kept = {
        name: {
            key: value
            for key, value in metrics.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        for name, metrics in sections.items()
    }
    return {
        "t": round(
            time.time() if timestamp is None else timestamp, 3
        ),
        "mode": mode,
        "commit": commit,
        "host": host,
        "sections": kept,
    }


def append_history(
    path: str | Path,
    report_dict: dict,
    mode: str,
    commit: str | None = None,
) -> dict:
    """Append one history entry to the JSONL file; returns the entry."""
    entry = history_entry(report_dict, mode, commit)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str | Path) -> list:
    """All parseable entries of a BENCH_history.jsonl, in file order."""
    history_path = Path(path)
    if not history_path.exists():
        raise ConfigurationError(f"no bench history at {history_path}")
    entries = []
    with open(history_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "sections" in entry:
                entries.append(entry)
    return entries


def check_regression(
    entries: list,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> dict:
    """Gate the newest history entry against its rolling baseline.

    The candidate is the *last* entry; the baseline for each
    ``*_seconds`` metric is the median over the last ``window`` prior
    entries of the same mode and the same ``host``, so a run is never
    judged against another machine's timings.  Rows without a ``host``
    (written before hosts were recorded) never count.  A metric
    regresses when ``candidate > baseline * (1 + threshold)``.  With no
    comparable prior entries the gate passes vacuously (first run seeds
    the history); ``compared`` is then 0 and the render says so.

    Returns ``{"ok", "findings", "baseline_runs", "other_host_runs",
    "compared", "mode"}``: ``other_host_runs`` counts the prior rows of
    this mode left out for their host, ``compared`` the metrics that
    had a baseline, and each finding carries section, metric, baseline,
    value and ratio.
    """
    if threshold <= 0:
        raise ConfigurationError("regression threshold must be positive")
    if window < 1:
        raise ConfigurationError("baseline window must be >= 1")
    if not entries:
        raise ConfigurationError("bench history is empty")
    candidate = entries[-1]
    mode = candidate.get("mode")
    host = candidate.get("host")
    same_mode = [e for e in entries[:-1] if e.get("mode") == mode]
    same_host = [
        e
        for e in same_mode
        if e.get("host") is not None and e.get("host") == host
    ]
    baseline_entries = same_host[-window:]
    findings = []
    compared = 0
    for section, metrics in candidate.get("sections", {}).items():
        for metric, value in metrics.items():
            if not metric.endswith("_seconds"):
                continue
            prior = [
                e["sections"][section][metric]
                for e in baseline_entries
                if metric in e.get("sections", {}).get(section, {})
            ]
            if not prior:
                continue
            compared += 1
            baseline = statistics.median(prior)
            if baseline > 0 and value > baseline * (1.0 + threshold):
                findings.append(
                    {
                        "section": section,
                        "metric": metric,
                        "baseline": baseline,
                        "value": value,
                        "ratio": value / baseline,
                    }
                )
    findings.sort(key=lambda f: f["ratio"], reverse=True)
    return {
        "ok": not findings,
        "findings": findings,
        "baseline_runs": len(baseline_entries),
        "other_host_runs": len(same_mode) - len(same_host),
        "compared": compared,
        "mode": mode,
    }


def render_regression(verdict: dict, threshold: float) -> str:
    """Human-readable regression-gate verdict."""
    lines = [
        f"regression gate (mode={verdict['mode']}, "
        f"threshold=+{threshold:.0%}, "
        f"baseline={verdict['baseline_runs']} run(s))"
    ]
    if verdict["compared"] == 0:
        lines.append(
            "  NOTHING COMPARED: no prior history for this mode and host "
            f"({verdict['other_host_runs']} row(s) of this mode from "
            "another host or with no host ignored) — gate passes vacuously"
        )
        return "\n".join(lines)
    for finding in verdict["findings"]:
        lines.append(
            f"  REGRESSION {finding['section']}.{finding['metric']}: "
            f"{finding['value']:.4f}s vs baseline "
            f"{finding['baseline']:.4f}s ({finding['ratio']:.2f}x)"
        )
    if verdict["ok"]:
        lines.append(
            f"  ok — {verdict['compared']} metric(s) compared, "
            "none beyond the threshold"
        )
    return "\n".join(lines)
