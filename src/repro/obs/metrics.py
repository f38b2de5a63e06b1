"""Metrics registries: counters, gauges, bounded histograms.

The observability layer's contract is that instrumentation must never
change what the simulator computes and must cost nothing when off:

* instrumented call sites guard with ``if obs is not None`` (one
  attribute check per *event*, never per cycle);
* every registry belongs to an owner that asked for it — a simulation
  run's :class:`~repro.obs.observability.Observability`, a service's
  job-latency table — so there is no process-wide registry to switch
  on or off; sweep, pool, queue and fallback telemetry goes to the run
  ledger (:mod:`repro.obs.ledger`) instead;
* :class:`BoundedHistogram` has a fixed memory footprint no matter how
  many samples it absorbs — exact unit-width bins for small integer
  values (latencies in cycles) and geometric bins beyond, so a
  week-long run costs the same bytes as a smoke run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class BoundedHistogram:
    """Fixed-footprint histogram of non-negative values.

    Binning (monotone in the value, so percentiles walk bins in value
    order):

    * values below ``exact_limit`` land in unit-width bins
      (``floor(value)``) — **exact** for integer samples, which is what
      latency-in-cycles recording produces;
    * values at or above ``exact_limit`` land in geometric bins,
      ``bins_per_octave`` per power of two, whose representative (bin
      midpoint) is at most ``1 / (2 * bins_per_octave)`` relative error
      from any member — 6.25% with the default 8 bins/octave.

    The bin table is a dict capped at ``exact_limit`` unit bins plus
    ~``bins_per_octave * 52`` geometric bins, so memory is bounded by
    construction regardless of sample count.  ``count``/``total``/
    ``minimum``/``maximum`` are tracked exactly.

    :meth:`percentile` follows ``np.percentile``'s default linear
    interpolation between order statistics, so for integer samples that
    all fall below ``exact_limit`` it reproduces ``np.percentile``
    bit-for-bit (up to float addition order); above, the documented
    relative error bound applies.
    """

    __slots__ = (
        "exact_limit",
        "bins_per_octave",
        "_bins",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(
        self, exact_limit: int = 4096, bins_per_octave: int = 8
    ) -> None:
        if exact_limit < 1:
            raise ConfigurationError("exact_limit must be >= 1")
        if exact_limit & (exact_limit - 1):
            # Power of two keeps the unit-bin and geometric-bin key
            # ranges disjoint (and therefore the binning monotone).
            raise ConfigurationError("exact_limit must be a power of two")
        if bins_per_octave < 1:
            raise ConfigurationError("bins_per_octave must be >= 1")
        self.exact_limit = exact_limit
        self.bins_per_octave = bins_per_octave
        self._bins: dict = {}
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None

    @property
    def max_bins(self) -> int:
        """Hard bound on the bin-table size (the memory guarantee)."""
        # Unit bins plus geometric bins over the float64 exponent range.
        return self.exact_limit + self.bins_per_octave * 1100

    def record(self, value) -> None:
        if not math.isfinite(value):
            # inf/nan would otherwise crash frexp-based binning (or
            # silently poison `total`); reject them at the door.
            raise ConfigurationError(
                f"histogram values must be finite, got {value}"
            )
        if value < 0:
            raise ConfigurationError(
                f"histogram values must be >= 0, got {value}"
            )
        key = self._bin_key(value)
        self._bins[key] = self._bins.get(key, 0) + 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundedHistogram):
            return NotImplemented
        return (
            self.exact_limit == other.exact_limit
            and self.bins_per_octave == other.bins_per_octave
            and self.count == other.count
            and self.total == other.total
            and self.minimum == other.minimum
            and self.maximum == other.maximum
            and self._bins == other._bins
        )

    def _bin_key(self, value) -> int:
        if value < self.exact_limit:
            return int(value)
        mantissa, exponent = math.frexp(value)  # value = m * 2^e, m in [0.5, 1)
        sub = int((mantissa - 0.5) * 2 * self.bins_per_octave)
        base_exponent = self.exact_limit.bit_length()
        return (
            self.exact_limit
            + (exponent - base_exponent) * self.bins_per_octave
            + sub
        )

    def _bin_value(self, key: int) -> float:
        """Representative value of a bin (exact for unit bins of ints)."""
        if key < self.exact_limit:
            return float(key)
        base_exponent = self.exact_limit.bit_length()
        offset = key - self.exact_limit
        exponent = base_exponent + offset // self.bins_per_octave
        sub = offset % self.bins_per_octave
        lower = math.ldexp(1.0, exponent - 1) * (
            1.0 + sub / self.bins_per_octave
        )
        width = math.ldexp(1.0, exponent - 1) / self.bins_per_octave
        return lower + width / 2.0

    def merge(self, other: "BoundedHistogram") -> "BoundedHistogram":
        """Fold ``other``'s samples into this histogram, losslessly.

        Two histograms with the same binning parameters partition the
        value axis identically, so summing their bin tables yields
        exactly the histogram the union of their samples would have
        built — merged snapshots therefore compare equal (``==``) to
        single-registry ones, which is what makes ``repro metrics
        --merge`` trustworthy.

        Raises:
            ConfigurationError: The binning parameters differ (the
                merge would not be lossless).
        """
        if not isinstance(other, BoundedHistogram):
            raise ConfigurationError(
                f"cannot merge {type(other).__name__} into a histogram"
            )
        if (
            self.exact_limit != other.exact_limit
            or self.bins_per_octave != other.bins_per_octave
        ):
            raise ConfigurationError(
                "histogram merge needs identical binning: "
                f"({self.exact_limit}, {self.bins_per_octave}) vs "
                f"({other.exact_limit}, {other.bins_per_octave})"
            )
        for key, count in other._bins.items():
            self._bins[key] = self._bins.get(key, 0) + count
        self.count += other.count
        self.total += other.total
        if other.minimum is not None and (
            self.minimum is None or other.minimum < self.minimum
        ):
            self.minimum = other.minimum
        if other.maximum is not None and (
            self.maximum is None or other.maximum > self.maximum
        ):
            self.maximum = other.maximum
        return self

    def _order_statistic(self, k: int) -> float:
        """Value of the 0-based ``k``-th smallest sample (by bin)."""
        seen = 0
        for key in sorted(self._bins):
            seen += self._bins[key]
            if k < seen:
                return self._bin_value(key)
        raise ConfigurationError(
            f"order statistic {k} out of range for count {self.count}"
        )

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile (``np.percentile`` semantics)."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100]: {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * (self.count - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        low_value = self._order_statistic(low)
        if high == low:
            return float(low_value)
        high_value = self._order_statistic(high)
        return low_value + (high_value - low_value) * (rank - low)

    def to_dict(self) -> dict:
        """JSON-able snapshot, lossless for :meth:`from_dict`.

        Bins are ``[key, representative, count]`` triples: the *key* is
        the internal bin index (what :meth:`from_dict` reconstructs
        from, making the round trip exact), the *representative* the
        human-readable bin value the old two-element format carried.
        ``exact_limit``/``bins_per_octave`` ride along so a snapshot
        pins its own binning and merged snapshots can be checked for
        compatibility offline.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "exact_limit": self.exact_limit,
            "bins_per_octave": self.bins_per_octave,
            "bins": [
                [key, self._bin_value(key), self._bins[key]]
                for key in sorted(self._bins)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BoundedHistogram":
        """Rebuild a histogram from a :meth:`to_dict` snapshot.

        The reconstruction is exact: ``from_dict(h.to_dict()) == h``
        for every histogram, and merging reconstructed snapshots is
        indistinguishable from having recorded all samples into one
        registry (the aggregation layer relies on both).
        """
        hist = cls(
            exact_limit=data.get("exact_limit", 4096),
            bins_per_octave=data.get("bins_per_octave", 8),
        )
        for entry in data.get("bins", ()):
            if len(entry) != 3:
                raise ConfigurationError(
                    "histogram snapshot bins must be "
                    "[key, representative, count] triples "
                    "(pre-merge two-element snapshots are not lossless)"
                )
            key, _representative, count = entry
            hist._bins[int(key)] = hist._bins.get(int(key), 0) + int(count)
        hist.count = data["count"]
        hist.total = data["sum"]
        hist.minimum = data.get("min")
        hist.maximum = data.get("max")
        return hist


@dataclass
class MetricsRegistry:
    """Named metrics with one shared namespace per registry."""

    _counters: dict = field(default_factory=dict, init=False, repr=False)
    _gauges: dict = field(default_factory=dict, init=False, repr=False)
    _histograms: dict = field(default_factory=dict, init=False, repr=False)

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, **kwargs) -> BoundedHistogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = BoundedHistogram(**kwargs)
        return metric

    def value(self, name: str):
        """Counter/gauge value (or histogram count) by name, else None."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        if name in self._histograms:
            return self._histograms[name].count
        return None

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def snapshot(self) -> dict:
        """JSON-able dump of every metric in the registry."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.to_dict()
                for name, metric in sorted(self._histograms.items())
            },
        }
