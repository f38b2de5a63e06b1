"""Prometheus text exposition over metrics snapshots (stdlib only).

:func:`render_prometheus` turns a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict — plus any
extra service-level samples — into the Prometheus text format
(``text/plain; version=0.0.4``) that ``GET /v1/metrics`` and ``repro
metrics --format prom`` serve.  :func:`parse_prometheus` is the strict
reader the tests and the CI smoke job use to prove the output is
actually scrapeable, without adding a dependency on a real client
library.

Conventions (documented in ``docs/OBSERVABILITY.md``):

* every metric is prefixed ``repro_`` and dots become underscores —
  the service's ``serve.cancelled`` count exports as
  ``repro_serve_cancelled``;
* dotted *per-key* families split their tail into a label: with
  ``labels_from={"serve.job_ms": "workload"}`` the registry histogram
  ``serve.job_ms.edram_tradeoff`` exports as
  ``repro_serve_job_ms{workload="edram_tradeoff"}``;
* histograms export as Prometheus *summaries*: ``quantile`` samples
  for p50/p95/p99 plus ``_count`` and ``_sum``.
"""

from __future__ import annotations

import re

from repro.errors import ConfigurationError

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Exported metric-name prefix; keeps repro metrics from colliding in a
#: shared Prometheus namespace.
PREFIX = "repro_"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(\{[^{}]*\})?"  # optional label set
    r" (-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|Inf)|NaN)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_name(name: str) -> str:
    """Registry metric name → legal Prometheus metric name (prefixed)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    full = PREFIX + cleaned
    if not _NAME_OK.match(full):
        raise ConfigurationError(f"cannot export metric name {name!r}")
    return full


def _unescape_label(value: str) -> str:
    """Inverse of :func:`_escape_label`, processing escapes in order
    (a chained ``str.replace`` would corrupt ``\\\\`` followed by
    ``n``)."""
    out: list = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            follow = value[index + 1]
            out.append(
                {"n": "\n", "\\": "\\", '"': '"'}.get(follow, "\\" + follow)
            )
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def _escape_label(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value) -> str:
    number = float(value)
    if number != number:
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _label_suffix(labels) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _split_family(name: str, labels_from) -> tuple:
    """(family, labels) — peel a per-key tail into a label if configured."""
    if labels_from:
        for prefix, label_key in labels_from.items():
            tail = None
            if name.startswith(prefix + "."):
                tail = name[len(prefix) + 1 :]
            if tail:
                return prefix, {label_key: tail}
    return name, {}


class _Family:
    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list = []  # (suffix, labels, value)


def render_prometheus(snapshot: dict, extra=None, labels_from=None) -> str:
    """Render a metrics snapshot (plus extra samples) as exposition text.

    ``extra`` is an iterable of ``{"name", "value", "type", "labels"}``
    dicts for service-level samples that do not live in a registry
    (in-flight count, jobs by status, cache ratios); same name may repeat
    with different labels.  ``labels_from`` maps dotted family prefixes
    to the label key their name tail becomes (see module docstring).
    """
    if not isinstance(snapshot, dict):
        raise ConfigurationError(
            f"metrics snapshot must be a dict, got {type(snapshot).__name__}"
        )
    families: dict = {}

    def family(name: str, kind: str) -> _Family:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = _Family(kind)
        elif entry.kind != kind:
            raise ConfigurationError(
                f"metric family {name!r} exported as both "
                f"{entry.kind} and {kind}"
            )
        return entry

    for name, value in snapshot.get("counters", {}).items():
        base, labels = _split_family(name, labels_from)
        family(base, "counter").samples.append(("", labels, value))
    for name, value in snapshot.get("gauges", {}).items():
        base, labels = _split_family(name, labels_from)
        family(base, "gauge").samples.append(("", labels, value))
    for name, dumped in snapshot.get("histograms", {}).items():
        base, labels = _split_family(name, labels_from)
        entry = family(base, "summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            entry.samples.append(
                ("", dict(labels, quantile=quantile), dumped.get(key, 0.0))
            )
        entry.samples.append(("_count", labels, dumped.get("count", 0)))
        entry.samples.append(("_sum", labels, dumped.get("sum", 0.0)))
    for sample in extra or ():
        kind = sample.get("type", "gauge")
        if kind not in ("gauge", "counter"):
            raise ConfigurationError(
                f"extra samples must be gauge or counter, got {kind!r}"
            )
        family(sample["name"], kind).samples.append(
            ("", sample.get("labels") or {}, sample["value"])
        )

    lines = []
    for name in sorted(families):
        entry = families[name]
        exported = sanitize_name(name)
        lines.append(f"# TYPE {exported} {entry.kind}")
        for suffix, labels, value in entry.samples:
            lines.append(
                f"{exported}{suffix}{_label_suffix(labels)} "
                f"{_format_value(value)}"
            )
    return "\n".join(lines) + "\n" if lines else ""


def parse_prometheus(text: str) -> dict:
    """Strictly parse exposition text; raises ConfigurationError on any
    malformed line.

    Returns ``{"families": {name: kind}, "samples": [(name, labels,
    value)]}`` with labels as plain dicts — enough for the tests and CI
    smoke to assert on individual series.
    """
    families: dict = {}
    samples: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in (
                    "counter",
                    "gauge",
                    "summary",
                    "histogram",
                    "untyped",
                ):
                    raise ConfigurationError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                families[parts[2]] = kind
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ConfigurationError(
                f"line {lineno}: malformed sample {line!r}"
            )
        name, label_body, value = match.groups()
        labels = {}
        if label_body:
            body = label_body[1:-1].strip()
            position = 0
            while position < len(body):
                pair = _LABEL.match(body, position)
                if pair is None:
                    raise ConfigurationError(
                        f"line {lineno}: malformed labels {label_body!r}"
                    )
                labels[pair.group(1)] = _unescape_label(pair.group(2))
                position = pair.end()
                while position < len(body) and body[position] in ", ":
                    position += 1
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        if base not in families:
            raise ConfigurationError(
                f"line {lineno}: sample {name!r} has no # TYPE declaration"
            )
        samples.append((name, labels, float(value)))
    return {"families": families, "samples": samples}


def workqueue_samples(status: dict, now: float | None = None) -> list:
    """Extra-sample list (for :func:`render_prometheus`) from a
    :meth:`~repro.core.executor.WorkQueue.status` snapshot.

    Covers the distributed-run gauges the ISSUE's dashboard needs:
    chunk counts by state, per-lease ages (a stuck worker shows as a
    monotonically growing age) and per-worker liveness (seconds since
    last heartbeat, plus chunks completed).
    """
    if now is None:
        import time

        now = time.time()
    samples = [
        {
            "name": f"workqueue.{key}",
            "value": int(status.get(key) or 0),
        }
        for key in ("pending", "leased", "expired", "completed")
    ]
    samples.append(
        {"name": "workqueue.done", "value": 1 if status.get("done") else 0}
    )
    for name, age in sorted((status.get("lease_ages") or {}).items()):
        samples.append(
            {
                "name": "workqueue.lease_age_s",
                "value": age,
                "labels": {"lease": name},
            }
        )
    for record in status.get("workers") or []:
        worker = str(record.get("worker", "?"))
        samples.append(
            {
                "name": "workqueue.worker_heartbeat_age_s",
                "value": round(max(0.0, now - record.get("t", now)), 3),
                "labels": {"worker": worker},
            }
        )
        samples.append(
            {
                "name": "workqueue.worker_chunks_done",
                "value": record.get("chunks_done", 0),
                "type": "counter",
                "labels": {"worker": worker},
            }
        )
    return samples


def sample_value(parsed: dict, name: str, **labels) -> float | None:
    """First sample matching ``name`` and the given label subset."""
    for sample_name, sample_labels, value in parsed["samples"]:
        if sample_name != name:
            continue
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            return value
    return None
