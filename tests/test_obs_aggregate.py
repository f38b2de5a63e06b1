"""Tests for lossless metrics aggregation across process boundaries."""

import json
import random

import pytest

from repro.errors import ConfigurationError
from repro.obs.aggregate import merge_snapshots
from repro.obs.metrics import BoundedHistogram, MetricsRegistry


def _histogram_of(samples, **kwargs):
    hist = BoundedHistogram(**kwargs)
    for value in samples:
        hist.record(value)
    return hist


class TestHistogramMerge:
    def test_merge_equals_union_of_samples(self):
        a = _histogram_of([1, 2, 3, 5000])
        b = _histogram_of([2, 7, 9001])
        union = _histogram_of([1, 2, 3, 5000, 2, 7, 9001])
        assert a.merge(b) is a
        assert a == union

    def test_merge_empty_sides(self):
        a = _histogram_of([1, 2])
        assert a.merge(BoundedHistogram()) == _histogram_of([1, 2])
        empty = BoundedHistogram()
        empty.merge(_histogram_of([4, 8]))
        assert empty == _histogram_of([4, 8])
        assert BoundedHistogram().merge(BoundedHistogram()).count == 0

    def test_merge_tracks_min_max_exactly(self):
        a = _histogram_of([10, 20])
        a.merge(_histogram_of([1, 99999]))
        assert a.minimum == 1
        assert a.maximum == 99999

    def test_merge_rejects_mismatched_binning(self):
        a = BoundedHistogram(exact_limit=1024)
        b = BoundedHistogram(exact_limit=4096)
        with pytest.raises(ConfigurationError, match="identical binning"):
            a.merge(b)
        c = BoundedHistogram(bins_per_octave=4)
        with pytest.raises(ConfigurationError, match="identical binning"):
            BoundedHistogram().merge(c)

    def test_merge_rejects_non_histogram(self):
        with pytest.raises(ConfigurationError):
            BoundedHistogram().merge({"count": 3})

    @pytest.mark.parametrize("seed", range(5))
    def test_property_split_merge_equals_whole(self, seed):
        """Any K-way split of a sample stream merges back losslessly."""
        rng = random.Random(seed)
        samples = [
            rng.choice(
                [rng.randrange(0, 4096), rng.randrange(4096, 10**9)]
            )
            for _ in range(200)
        ]
        whole = _histogram_of(samples)
        parts = [[] for _ in range(rng.randrange(2, 6))]
        for value in samples:
            parts[rng.randrange(len(parts))].append(value)
        merged = BoundedHistogram()
        for part in parts:
            merged.merge(_histogram_of(part))
        assert merged == whole
        assert merged.percentile(95) == whole.percentile(95)


class TestHistogramRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        hist = _histogram_of([0, 1, 1, 4095, 4096, 123456, 7.5])
        clone = BoundedHistogram.from_dict(hist.to_dict())
        assert clone == hist

    def test_round_trip_survives_json(self):
        hist = _histogram_of([3, 3, 3, 10**6])
        dumped = json.loads(json.dumps(hist.to_dict()))
        assert BoundedHistogram.from_dict(dumped) == hist

    def test_round_trip_preserves_binning_params(self):
        hist = _histogram_of(
            [5, 500], exact_limit=256, bins_per_octave=4
        )
        clone = BoundedHistogram.from_dict(hist.to_dict())
        assert clone.exact_limit == 256
        assert clone.bins_per_octave == 4
        assert clone == hist

    def test_empty_round_trip(self):
        clone = BoundedHistogram.from_dict(BoundedHistogram().to_dict())
        assert clone == BoundedHistogram()
        assert clone.minimum is None

    def test_legacy_two_element_bins_rejected(self):
        snapshot = _histogram_of([1, 2]).to_dict()
        snapshot["bins"] = [[rep, count] for _, rep, count in snapshot["bins"]]
        with pytest.raises(ConfigurationError, match="triples"):
            BoundedHistogram.from_dict(snapshot)

    @pytest.mark.parametrize("seed", range(3))
    def test_property_merged_snapshots_equal_union_histogram(self, seed):
        """from_dict + merge over snapshots == recording everything."""
        rng = random.Random(1000 + seed)
        streams = [
            [rng.randrange(0, 10**7) for _ in range(rng.randrange(1, 80))]
            for _ in range(4)
        ]
        merged = BoundedHistogram()
        for stream in streams:
            merged.merge(
                BoundedHistogram.from_dict(_histogram_of(stream).to_dict())
            )
        union = _histogram_of([v for stream in streams for v in stream])
        assert merged == union


class TestMergeSnapshots:
    def test_counters_add_gauges_last_write_wins(self):
        merged = merge_snapshots(
            {"counters": {"c": 2}, "gauges": {"g": 1.0}, "histograms": {}},
            {"counters": {"c": 3}, "gauges": {"g": 7.0}, "histograms": {}},
        )
        assert merged["counters"] == {"c": 5}
        assert merged["gauges"] == {"g": 7.0}

    def test_histograms_merge_losslessly(self):
        merged = merge_snapshots(
            {"histograms": {"h": _histogram_of([1, 2]).to_dict()}},
            {"histograms": {"h": _histogram_of([2, 9000]).to_dict()}},
        )
        assert BoundedHistogram.from_dict(
            merged["histograms"]["h"]
        ) == _histogram_of([1, 2, 2, 9000])

    def test_non_dict_snapshot_rejected(self):
        with pytest.raises(ConfigurationError, match="dict"):
            merge_snapshots([1, 2])

    def test_merge_snapshots_matches_single_registry(self):
        solo = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(3)]
        for index, worker in enumerate(workers):
            for value in range(index + 2):
                solo.counter("points").inc()
                worker.counter("points").inc()
                solo.histogram("lat_us").record(value * 100)
                worker.histogram("lat_us").record(value * 100)
        merged = merge_snapshots(*(w.snapshot() for w in workers))
        assert merged == solo.snapshot()

    def test_merge_snapshots_empty(self):
        assert merge_snapshots() == MetricsRegistry().snapshot()
