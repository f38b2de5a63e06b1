"""``repro top`` — live TTY dashboard over a running service.

Polls ``GET /v1/metrics`` (Prometheus text) and renders a compact
one-screen summary: job counts by status, jobs in flight, per-workload
latency quantiles, coalesced / cache rates.  On a real TTY the screen is redrawn in place
with ANSI clear codes; when stdout is not a TTY (CI logs, pipes) it
degrades to plain periodic text blocks, one per poll.

Everything is injectable for tests: the fetcher (a callable returning
exposition text), the clock, the output stream and the iteration
count — ``render_dashboard`` itself is a pure function from parsed
samples to a string.
"""

from __future__ import annotations

import time

from repro.obs.expo import parse_prometheus, sample_value

#: ANSI: home the cursor and clear to end of screen.
_CLEAR = "\x1b[H\x1b[2J"


def _fmt(value, width: int = 6) -> str:
    if value is None:
        return "-".rjust(width)
    if value == int(value):
        return str(int(value)).rjust(width)
    return f"{value:.2f}".rjust(width)


def _series(parsed: dict, name: str) -> list:
    return [
        (labels, value)
        for sample_name, labels, value in parsed["samples"]
        if sample_name == name
    ]


def render_dashboard(text: str, title: str = "repro top") -> str:
    """One dashboard frame from raw exposition text (pure function)."""
    parsed = parse_prometheus(text)
    lines = [title, "=" * len(title)]

    jobs = _series(parsed, "repro_serve_jobs")
    total_jobs = int(sum(value for _, value in jobs))
    by_status = ", ".join(
        f"{labels.get('status', '?')}={int(value)}"
        for labels, value in sorted(
            jobs, key=lambda pair: pair[0].get("status", "")
        )
    )
    lines.append(
        f"jobs      {total_jobs} ({by_status})" if jobs else "jobs      0"
    )

    in_flight = sample_value(parsed, "repro_serve_in_flight")
    lines.append(f"queue     in-flight {_fmt(in_flight, 1)}")

    coalesced = sample_value(parsed, "repro_serve_coalesced")
    cache_ratio = sample_value(parsed, "repro_serve_cache_hit_ratio")
    lines.append(
        f"pressure  coalesced {_fmt(coalesced, 1)}"
        + (
            f"   cache-hit {cache_ratio * 100:.0f}%"
            if cache_ratio is not None
            else ""
        )
    )

    # Per-workload: latency summary on one row each.
    workloads: dict = {}
    for labels, value in _series(parsed, "repro_serve_job_ms"):
        entry = workloads.setdefault(labels.get("workload", "?"), {})
        entry[f"q{labels.get('quantile', '?')}"] = value
    for labels, value in _series(parsed, "repro_serve_job_ms_count"):
        workloads.setdefault(labels.get("workload", "?"), {})[
            "count"
        ] = value
    if workloads:
        lines.append("")
        lines.append("workload                jobs   p50ms   p95ms")
        for name in sorted(workloads):
            entry = workloads[name]
            lines.append(
                f"{name[:20].ljust(20)}  "
                f"{_fmt(entry.get('count'))} "
                f"{_fmt(entry.get('q0.5'), 7)} "
                f"{_fmt(entry.get('q0.95'), 7)}"
            )

    # Distributed workers, if the scrape includes work-queue samples.
    workers = _series(parsed, "repro_workqueue_lease_age_s")
    if workers:
        lines.append("")
        lines.append("worker                lease-age-s")
        for labels, value in sorted(
            workers, key=lambda pair: pair[0].get("lease", "")
        ):
            lines.append(
                f"{labels.get('lease', '?')[:20].ljust(20)}  "
                f"{_fmt(value, 9)}"
            )
    return "\n".join(lines) + "\n"


def top_loop(
    fetch,
    out,
    interval_s: float = 1.0,
    iterations: int | None = None,
    is_tty: bool | None = None,
    sleep=time.sleep,
    title: str = "repro top",
) -> int:
    """Poll ``fetch()`` and render frames to ``out`` until interrupted.

    ``iterations=None`` runs until KeyboardInterrupt (the interactive
    mode); tests and ``--once`` pass a finite count.  Returns the
    number of frames rendered.  A fetch failure renders an error frame
    instead of crashing — the service being briefly unreachable is a
    state worth displaying, not a reason to exit.
    """
    if is_tty is None:
        is_tty = bool(getattr(out, "isatty", lambda: False)())
    frames = 0
    try:
        while iterations is None or frames < iterations:
            try:
                frame = render_dashboard(fetch(), title=title)
            except Exception as error:  # noqa: BLE001 - keep polling
                frame = f"{title}\n{'=' * len(title)}\n[unreachable: {error}]\n"
            if is_tty:
                out.write(_CLEAR + frame)
            else:
                out.write(frame + "\n")
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return frames
