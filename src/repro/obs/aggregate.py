"""Offline metrics aggregation: ``repro metrics --merge``.

Merges saved :meth:`MetricsRegistry.snapshot` files (one per run or
process) into one snapshot.  The contract is *losslessness*:

* counters add, so the merged count equals what a single process would
  have counted;
* histograms merge bin-by-bin (:meth:`BoundedHistogram.merge`), so the
  merged distribution equals the one the union of samples would have
  built — ``merge_snapshots(a.snapshot(), b.snapshot())`` compares
  equal to the snapshot of a registry that recorded everything itself;
* gauges are last-write-wins by definition, so the merge keeps the
  value of the last snapshot (file order on the command line).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.obs.metrics import BoundedHistogram, MetricsRegistry


def merge_snapshots(*snapshots: dict) -> dict:
    """Merge snapshot dicts into the one a single registry would have
    produced had it recorded every sample itself (gauges excepted: the
    last snapshot wins).

    Histogram merges require matching binning parameters; a mismatch
    raises :class:`~repro.errors.ConfigurationError` rather than
    merging lossily, as does a snapshot that is not a dict.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            raise ConfigurationError(
                "metrics snapshot must be a dict, got "
                f"{type(snapshot).__name__}"
            )
        for name, value in snapshot.get("counters", {}).items():
            merged.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            merged.gauge(name).set(value)
        for name, dumped in snapshot.get("histograms", {}).items():
            incoming = BoundedHistogram.from_dict(dumped)
            merged.histogram(
                name,
                exact_limit=incoming.exact_limit,
                bins_per_octave=incoming.bins_per_octave,
            ).merge(incoming)
    return merged.snapshot()
