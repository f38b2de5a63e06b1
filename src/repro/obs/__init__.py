"""Observability layer: metrics registry + command-timeline tracing.

One :class:`Observability` object rides along with a simulation run and
receives every interesting event — command issues, request retirements,
row hits/misses, FIFO pushes/stalls, refresh services and the
measurement reset.  It fans each event into

* a :class:`~repro.obs.metrics.MetricsRegistry` (counters and bounded
  histograms, exported as a JSON snapshot), and
* optionally a :class:`~repro.obs.trace.TraceRecorder` (Chrome
  trace-event JSON loadable in Perfetto), with one timeline track per
  bank (row-open spans), per client (request lifetimes), plus command,
  refresh and simulator tracks.

The layer is strictly read-only: it never mutates simulator state, and
with ``obs=None`` (the default everywhere) the only cost is one
attribute check per event at the instrumented call sites — results are
bit-identical either way, which ``tests/test_obs.py`` pins with the
differential fingerprints.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "BoundedHistogram": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "MetricsRegistry": "metrics",
    "Observability": "observability",
    "ProgressReporter": "progress",
    "RunLedger": "ledger",
    "TraceContext": "tracectx",
    "TraceRecorder": "trace",
    "coerce_trace": "tracectx",
    "merge_snapshots": "aggregate",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
