"""Merge per-process ledgers/traces into one Chrome trace.

A distributed run leaves telemetry scattered across processes: the
coordinator's :class:`~repro.obs.ledger.RunLedger`, one worker ledger
per process under the queue's ``ledgers/`` directory, a saved
``/v1/jobs/<id>/events`` document from the service, and optionally
Chrome traces from :class:`~repro.obs.trace.TraceRecorder`.  ``repro
trace --merge FILE...`` feeds them through :func:`merge_traces`, which
assembles a single Perfetto-loadable Chrome trace-event JSON:

* every input file becomes one *process* (pid) with a ``process_name``
  metadata record, so Perfetto renders one lane per ledger;
* matched ``span_start``/``span_end`` pairs become complete (``X``)
  events; unmatched starts (a killed worker) degrade to instants;
* ``chunk`` events become ``X`` events covering their reported wall
  duration;
* every other ledger kind becomes a thread-scoped instant;
* spans whose ``parent_span_id`` lives in a *different* process get
  Chrome flow arrows (``ph: "s"``/``"f"``), which is what draws the
  service → executor → worker parenting across lanes.

:func:`orphan_parents` is the validator the chaos harness and CI smoke
use: the set of ``parent_span_id`` values referenced anywhere that no
event in any input ever carried as its own ``span_id`` — non-empty
means a broken cross-process parent chain.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError

#: Ledger kinds rendered as instants in the merged trace.  Everything
#: else (high-volume or bookkeeping-only kinds) is skipped to keep the
#: merged trace readable; spans and chunks always render.
INSTANT_KINDS = frozenset(
    {
        "ledger_open",
        "resume",
        "run_start",
        "run_end",
        "queue_start",
        "queue_end",
        "checkpoint",
        "quarantine",
        "fallback",
        "lease_expired",
        "store_hits",
        "cache_hit",
        "cancelled",
        "progress",
    }
)


def load_trace_file(path) -> tuple:
    """Classify and load one input file.

    Returns ``("chrome", document)`` for a Chrome trace-event JSON
    (``traceEvents`` key), or ``("ledger", records)`` for ledger-shaped
    input: JSONL (one record per line), a JSON array of records, or a
    ``{"events": [...]}`` envelope (a saved job-events response).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict):
            if "traceEvents" in document:
                return "chrome", document
            if isinstance(document.get("events"), list):
                return "ledger", document["events"]
        if isinstance(document, list):
            return "ledger", document
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail of a killed writer
        if isinstance(record, dict):
            records.append(record)
    if not records:
        raise ConfigurationError(
            f"{path} holds neither a Chrome trace nor ledger records"
        )
    return "ledger", records


def _flow_id(span_id: str) -> int:
    """Stable positive integer flow id for a hex span id."""
    try:
        return int(span_id[:15], 16) or 1
    except ValueError:
        return (abs(hash(span_id)) % (2**31)) or 1


def _ledger_spans(records: list) -> tuple:
    """Split one ledger into (spans, chunks, instants).

    A span is a matched start/end pair (by the end's ``span`` back
    reference); unmatched starts are returned with ``dur=None``.
    """
    starts: dict = {}
    spans = []
    chunks = []
    instants = []
    for record in records:
        kind = record.get("kind")
        if kind == "span_start":
            starts[record.get("id")] = record
        elif kind == "span_end":
            start = starts.pop(record.get("span"), None)
            anchor = start if start is not None else record
            duration = record.get("s")
            begin_t = anchor.get("t")
            if start is None and duration is not None:
                # Quarantine-style synthetic end with no start: the
                # event time is the *end*; back the bar up.
                begin_t = (begin_t or 0.0) - duration
            spans.append(
                {
                    "name": record.get("name", "span"),
                    "t": begin_t,
                    "s": duration,
                    "record": anchor,
                }
            )
        elif kind == "chunk":
            chunks.append(record)
        elif kind in INSTANT_KINDS:
            instants.append(record)
    for start in starts.values():
        spans.append(
            {
                "name": start.get("name", "span"),
                "t": start.get("t"),
                "s": None,
                "record": start,
            }
        )
    return spans, chunks, instants


def orphan_parents(event_lists) -> set:
    """Parent span ids referenced but never defined, across all inputs.

    ``event_lists`` is an iterable of ledger record lists.  A parent is
    *defined* when any record anywhere carries it as its own
    ``span_id`` — the worker re-emits a stolen chunk's context
    verbatim, so even a SIGKILL'd worker's chunks stay defined.
    """
    defined = set()
    referenced = set()
    for records in event_lists:
        for record in records:
            span_id = record.get("span_id")
            if span_id:
                defined.add(span_id)
            parent = record.get("parent_span_id")
            if parent:
                referenced.add(parent)
    return referenced - defined


def merge_traces(paths) -> dict:
    """Assemble the input files into one Chrome trace document.

    See the module docstring for the mapping.  The merged document's
    ``otherData`` carries the input list, the trace ids observed and
    any orphan parent ids (``orphan_parents``) so a CI job can fail on
    broken parenting without re-parsing the events.
    """
    if not paths:
        raise ConfigurationError("trace merge needs at least one file")
    loaded = [(Path(path), *load_trace_file(path)) for path in paths]
    ledger_lists = [
        records for _, fmt, records in loaded if fmt == "ledger"
    ]
    # One wall-clock origin across every ledger, so lanes line up.
    t0 = None
    for records in ledger_lists:
        for record in records:
            t = record.get("t")
            if isinstance(t, (int, float)):
                t0 = t if t0 is None else min(t0, t)
    t0 = t0 or 0.0

    def ts_us(t) -> float:
        if not isinstance(t, (int, float)):
            return 0.0
        return round((t - t0) * 1e6, 3)

    events: list = []
    span_index: dict = {}  # span_id -> (pid, ts_us) first definition
    flows: list = []  # (child_pid, child_ts, parent_span_id, child_id)
    trace_ids = set()
    for pid0, (path, fmt, payload) in enumerate(loaded):
        pid = pid0 + 1
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": path.name},
            }
        )
        if fmt == "chrome":
            context = (payload.get("otherData") or {}).get("trace") or {}
            if context.get("trace_id"):
                trace_ids.add(context["trace_id"])
            for event in payload.get("traceEvents", []):
                event = dict(event)
                event["pid"] = pid
                if event.get("ph") == "M" and event.get("name") == (
                    "process_name"
                ):
                    continue  # replaced by the file-name metadata
                events.append(event)
            continue
        spans, chunks, instants = _ledger_spans(payload)
        for record in payload:
            if record.get("trace_id"):
                trace_ids.add(record["trace_id"])
        for span in spans:
            record = span["record"]
            span_id = record.get("span_id")
            start_us = ts_us(span["t"])
            args = {
                key: value
                for key, value in record.items()
                if key not in ("id", "t", "kind")
            }
            if span["s"] is None:
                events.append(
                    {
                        "name": span["name"],
                        "ph": "i",
                        "s": "t",
                        "ts": start_us,
                        "pid": pid,
                        "tid": 1,
                        "args": args,
                    }
                )
            else:
                events.append(
                    {
                        "name": span["name"],
                        "ph": "X",
                        "ts": start_us,
                        "dur": round(span["s"] * 1e6, 3),
                        "pid": pid,
                        "tid": 1,
                        "args": args,
                    }
                )
            if span_id and span_id not in span_index:
                span_index[span_id] = (pid, start_us)
            parent = record.get("parent_span_id")
            if span_id and parent:
                flows.append((pid, start_us, parent, span_id))
        for record in chunks:
            duration = record.get("s") or 0.0
            events.append(
                {
                    "name": f"chunk {record.get('index')}",
                    "ph": "X",
                    "ts": ts_us((record.get("t") or t0) - duration),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid,
                    "tid": 2,
                    "args": {
                        key: value
                        for key, value in record.items()
                        if key not in ("id", "t", "kind")
                    },
                }
            )
        for record in instants:
            events.append(
                {
                    "name": record.get("kind"),
                    "ph": "i",
                    "s": "t",
                    "ts": ts_us(record.get("t")),
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        key: value
                        for key, value in record.items()
                        if key not in ("id", "t", "kind")
                    },
                }
            )
    # Cross-process parent arrows: one flow per child span whose parent
    # span was defined in a *different* process.
    for child_pid, child_ts, parent, child_id in flows:
        definition = span_index.get(parent)
        if definition is None:
            continue
        parent_pid, parent_ts = definition
        if parent_pid == child_pid:
            continue
        flow = _flow_id(child_id)
        events.append(
            {
                "name": "parent",
                "cat": "trace",
                "ph": "s",
                "id": flow,
                "ts": parent_ts,
                "pid": parent_pid,
                "tid": 1,
            }
        )
        events.append(
            {
                "name": "parent",
                "cat": "trace",
                "ph": "f",
                "bp": "e",
                "id": flow,
                "ts": child_ts,
                "pid": child_pid,
                "tid": 1,
            }
        )
    orphans = sorted(orphan_parents(ledger_lists))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "inputs": [str(path) for path, _, _ in loaded],
            "trace_ids": sorted(trace_ids),
            "orphan_parents": orphans,
        },
    }


def write_merged_trace(paths, out) -> dict:
    """Merge ``paths`` and write the Chrome trace JSON to ``out``."""
    document = merge_traces(paths)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return document
