"""Tests for the observability layer (metrics, tracing, streaming stats).

Covers the three contracts the layer makes:

* **bit-identity** — attaching metrics/tracing never changes what the
  simulator computes (pinned with the differential fingerprint);
* **bounded memory** — histograms and :class:`LatencyStats` hold a
  fixed number of bins regardless of sample count, with percentiles
  exact below the unit-bin limit and within the documented relative
  error above (checked against ``np.percentile``);
* **valid exports** — metrics snapshots and Chrome trace-event JSON
  survive a ``json`` round-trip and carry the required schema fields.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.obs.metrics import (
    BoundedHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.trace import TraceRecorder
from repro.obs.workloads import mpeg2_decoder_simulator
from repro.sim.stats import LatencyStats, SimulationResult
from repro.verify.differential import result_fingerprint


class TestMetricsPrimitives:
    def test_counter_and_gauge(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = Gauge("g")
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_registry_creates_and_reuses(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.counter("a").inc(3)
        assert registry.value("a") == 3
        registry.gauge("b").set(7)
        assert registry.value("b") == 7
        registry.histogram("h").record(1)
        assert registry.value("h") == 1
        assert registry.value("missing") is None

    def test_every_registry_records(self):
        # There is no disabled registry: every instance hands out real
        # metrics and reports them in its snapshot.
        registry = MetricsRegistry()
        assert not hasattr(registry, "enabled")
        with pytest.raises(TypeError):
            MetricsRegistry(enabled=False)
        assert isinstance(registry.counter("a"), Counter)
        assert isinstance(registry.gauge("b"), Gauge)
        registry.counter("a").inc()
        registry.gauge("b").set(2)
        registry.histogram("c").record(3)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert snapshot["gauges"] == {"b": 2}
        assert snapshot["histograms"]["c"]["count"] == 1

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(12)
        registry.gauge("depth").set(3.5)
        hist = registry.histogram("latency")
        for value in (1, 2, 2, 3, 10_000):
            hist.record(value)
        restored = json.loads(json.dumps(registry.snapshot()))
        assert restored["counters"]["requests"] == 12
        assert restored["gauges"]["depth"] == 3.5
        assert restored["histograms"]["latency"]["count"] == 5
        assert restored["histograms"]["latency"]["max"] == 10_000


class TestBoundedHistogram:
    def test_exact_region_matches_numpy_percentile(self):
        rng = np.random.default_rng(7)
        samples = rng.integers(0, 4096, size=5_000)
        hist = BoundedHistogram()
        for value in samples:
            hist.record(int(value))
        for q in (0, 10, 50, 90, 95, 99, 100):
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-12
            )

    def test_geometric_region_within_documented_error(self):
        rng = np.random.default_rng(11)
        samples = rng.integers(4096, 5_000_000, size=5_000)
        hist = BoundedHistogram()
        for value in samples:
            hist.record(int(value))
        # Representative error is <= 1/(2*8) = 6.25%; interpolation
        # between adjacent bins keeps the result within ~7%.
        for q in (1, 25, 50, 75, 99):
            expected = float(np.percentile(samples, q))
            assert hist.percentile(q) == pytest.approx(expected, rel=0.07)

    def test_memory_stays_bounded(self):
        hist = BoundedHistogram()
        rng = np.random.default_rng(3)
        for value in rng.integers(0, 1 << 40, size=20_000):
            hist.record(int(value))
        assert len(hist._bins) <= hist.max_bins
        assert hist.count == 20_000

    def test_exact_aggregates(self):
        hist = BoundedHistogram()
        for value in (5, 1, 9, 9):
            hist.record(value)
        assert (hist.count, hist.total) == (4, 24)
        assert (hist.minimum, hist.maximum) == (1, 9)
        assert hist.mean == 6.0

    def test_binning_is_monotone_across_the_boundary(self):
        hist = BoundedHistogram()
        values = [4090, 4095, 4096, 4097, 5000, 8191, 8192, 1 << 20]
        keys = [hist._bin_key(v) for v in values]
        assert keys == sorted(keys)
        assert len(set(keys)) >= 6  # distinct magnitudes stay distinct

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedHistogram(exact_limit=0)
        with pytest.raises(ConfigurationError):
            BoundedHistogram(exact_limit=4000)  # not a power of two
        with pytest.raises(ConfigurationError):
            BoundedHistogram(bins_per_octave=0)
        hist = BoundedHistogram()
        with pytest.raises(ConfigurationError):
            hist.record(-1)
        with pytest.raises(ConfigurationError):
            hist.percentile(101)

    def test_empty_percentile_and_to_dict(self):
        hist = BoundedHistogram()
        assert hist.percentile(50) == 0.0
        dumped = hist.to_dict()
        assert dumped["count"] == 0
        assert dumped["bins"] == []

    def test_equality_tracks_content(self):
        a, b = BoundedHistogram(), BoundedHistogram()
        assert a == b
        a.record(5)
        assert a != b
        b.record(5)
        assert a == b


class TestLatencyStats:
    """Regression tests for the streaming LatencyStats rewrite (the
    seed kept every sample in an unbounded list)."""

    def test_streaming_matches_reference_aggregates(self):
        rng = np.random.default_rng(5)
        samples = [int(v) for v in rng.integers(0, 3000, size=2_000)]
        stats = LatencyStats()
        for value in samples:
            stats.record(value)
        assert stats.count == len(samples)
        assert stats.mean == pytest.approx(np.mean(samples), rel=1e-12)
        assert stats.minimum == min(samples)
        assert stats.maximum == max(samples)
        for q in (50, 95, 99):
            assert stats.percentile(q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-12
            )

    def test_memory_is_bounded_not_per_sample(self):
        stats = LatencyStats()
        for value in range(50_000):
            stats.record(value % 700)
        assert len(stats._hist._bins) <= 700
        assert not hasattr(stats, "_samples")

    def test_digest_is_order_sensitive(self):
        forward, backward, same = (
            LatencyStats(), LatencyStats(), LatencyStats()
        )
        for value in (1, 2, 3):
            forward.record(value)
            same.record(value)
        for value in (3, 2, 1):
            backward.record(value)
        assert forward.digest() == same.digest()
        assert forward.digest() != backward.digest()

    def test_zero_latency_changes_the_digest(self):
        empty, one_zero = LatencyStats(), LatencyStats()
        one_zero.record(0)
        assert empty.digest() != one_zero.digest()

    def test_empty_stats_degenerates_to_zero(self):
        stats = LatencyStats()
        assert (stats.count, stats.mean) == (0, 0.0)
        assert (stats.minimum, stats.maximum) == (0, 0)
        assert stats.percentile(99) == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyStats().record(-1)


def make_result(**overrides) -> SimulationResult:
    fields = dict(
        cycles=100,
        clock_hz=1e8,
        word_bits=16,
        requests_completed=10,
        data_bits_transferred=160,
        peak_bandwidth_bits_per_s=1.6e9,
        latency=LatencyStats(),
        latency_by_client={},
        row_hit_rate=0.5,
        fifo_high_water={},
        fifo_stall_cycles={},
        commands={},
        refreshes=0,
    )
    fields.update(overrides)
    return SimulationResult(**fields)


class TestSimulationResultValidation:
    """Regression tests: degenerate configs are rejected at
    construction instead of surfacing as ZeroDivisionError later."""

    def test_zero_clock_rejected(self):
        with pytest.raises(ConfigurationError, match="clock_hz"):
            make_result(clock_hz=0.0)
        with pytest.raises(ConfigurationError, match="clock_hz"):
            make_result(clock_hz=-1e8)

    def test_negative_cycles_and_peak_rejected(self):
        with pytest.raises(ConfigurationError):
            make_result(cycles=-1)
        with pytest.raises(ConfigurationError):
            make_result(peak_bandwidth_bits_per_s=-1.0)

    def test_degenerate_values_stay_finite(self):
        result = make_result(cycles=0, peak_bandwidth_bits_per_s=0.0)
        assert result.sustained_bandwidth_bits_per_s == 0.0
        assert result.bandwidth_efficiency == 0.0
        assert result.mean_latency_ns == 0.0
        assert result.bank_imbalance() == 1.0


class TestTraceRecorder:
    def test_events_have_required_schema_fields(self):
        trace = TraceRecorder(clock_hz=1e8)
        trace.instant("bus", "ACT", cycle=10, bank=2)
        trace.complete("bus", "RD", start_cycle=10, end_cycle=14)
        trace.counter("fifo", "depth", cycle=12, depth=3)
        dumped = json.loads(json.dumps(trace.to_dict()))
        events = dumped["traceEvents"]
        assert events[0] == {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "repro memory system"},
        }
        phases = [e["ph"] for e in events[1:]]
        assert phases == ["M", "i", "X", "M", "C"]
        for event in events[1:]:
            assert {"name", "ph", "pid"} <= set(event)
            if event["ph"] != "M":
                assert "ts" in event and "tid" in event
        complete = next(e for e in events if e["ph"] == "X")
        # 4 cycles at 100 MHz = 40 ns = 0.04 us.
        assert complete["dur"] == pytest.approx(0.04)

    def test_event_cap_counts_drops(self):
        trace = TraceRecorder(clock_hz=1e9, max_events=3)
        for cycle in range(10):
            trace.instant("t", "e", cycle)
        assert len(trace.events) == 3  # thread metadata + 2 instants
        assert trace.dropped_events == 8
        assert trace.to_dict()["otherData"]["dropped_events"] == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceRecorder(clock_hz=0)
        with pytest.raises(ConfigurationError):
            TraceRecorder(max_events=0)
        trace = TraceRecorder()
        with pytest.raises(ConfigurationError):
            trace.instant("t", "e", 0)  # no clock set yet
        trace.set_clock(1e8)
        with pytest.raises(ConfigurationError):
            trace.complete("t", "e", start_cycle=5, end_cycle=4)

    def test_write_round_trips(self, tmp_path):
        trace = TraceRecorder(clock_hz=1e8)
        trace.instant("bus", "ACT", cycle=1)
        path = tmp_path / "out.trace.json"
        trace.write(path)
        restored = json.loads(path.read_text())
        assert restored["otherData"]["clock_hz"] == 1e8
        assert any(
            e["name"] == "ACT" for e in restored["traceEvents"]
        )


class TestObservabilityIntegration:
    def test_obs_off_and_on_are_bit_identical(self):
        baseline = mpeg2_decoder_simulator(
            cycles=2_500, warmup_cycles=300
        ).run()
        obs = Observability.create(trace=True)
        observed = mpeg2_decoder_simulator(
            cycles=2_500, warmup_cycles=300, obs=obs
        ).run()
        assert result_fingerprint(baseline) == result_fingerprint(observed)

    def test_metrics_agree_with_simulation_result(self):
        # Zero warm-up: the measurement reset clears the result-side
        # statistics but not the cumulative metrics counters, so only a
        # warmup-free run makes the two views directly comparable.
        obs = Observability.create()
        result = mpeg2_decoder_simulator(
            cycles=2_500, warmup_cycles=0, obs=obs
        ).run()
        metrics = obs.metrics
        commands = sum(
            metrics.value(f"sim.commands.{name}") or 0
            for name in ("ACT", "PRE", "RD", "WR", "REF")
        )
        assert commands == sum(result.commands.values())
        assert (
            metrics.value("sim.latency_cycles") == result.latency.count
        )
        hits = metrics.value("sim.row_hits") or 0
        misses = metrics.value("sim.row_misses") or 0
        assert hits / (hits + misses) == pytest.approx(
            result.row_hit_rate
        )

    def test_trace_is_loadable_chrome_json(self, tmp_path):
        obs = Observability.create(trace=True)
        mpeg2_decoder_simulator(
            cycles=2_000, warmup_cycles=200, obs=obs
        ).run()
        path = tmp_path / "mpeg2.trace.json"
        obs.trace.write(path)
        dumped = json.loads(path.read_text())
        events = dumped["traceEvents"]
        assert dumped["otherData"]["dropped_events"] == 0
        phases = {e["ph"] for e in events}
        assert {"M", "i", "X", "C"} <= phases
        track_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "commands" in track_names
        assert any(name.startswith("bank ") for name in track_names)
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_observed_runs_step_every_cycle_identically(self):
        # Observability needs per-cycle events, so the event engine
        # declines it; the naive loop it runs on must agree with the
        # event engine's unobserved result.
        obs = Observability.create(trace=True)
        simulator = mpeg2_decoder_simulator(
            cycles=2_000, warmup_cycles=200, load=0.02, obs=obs
        )
        observed = simulator.run()
        assert simulator.backend_used == "cycle"
        assert "observability" in simulator.backend_fallback_reason
        plain = mpeg2_decoder_simulator(
            cycles=2_000, warmup_cycles=200, load=0.02
        )
        assert result_fingerprint(plain.run()) == result_fingerprint(observed)
        assert plain.backend_used == "event"
        resets = [
            e
            for e in obs.trace.events
            if e["ph"] == "i" and e["name"] == "measurement-reset"
        ]
        assert len(resets) == 1

    def test_metrics_only_mode_has_no_trace(self):
        obs = Observability.create(trace=False)
        mpeg2_decoder_simulator(
            cycles=1_200, warmup_cycles=100, obs=obs
        ).run()
        assert obs.trace is None
        assert obs.metrics.snapshot()["counters"]


class TestObsCLI:
    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "t.trace.json"
        code = main(
            [
                "trace",
                "--cycles", "1500",
                "--warmup-cycles", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "trace events" in capsys.readouterr().out
        assert json.loads(out.read_text())["traceEvents"]

    def test_metrics_subcommand_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "m.json"
        code = main(
            [
                "metrics",
                "--cycles", "1500",
                "--warmup-cycles", "200",
                "--json",
                "--out", str(out),
            ]
        )
        assert code == 0
        snapshot = json.loads(out.read_text())
        assert snapshot["counters"]["sim.requests_completed"] > 0

    def test_fuzz_trace_dir_writes_failure_traces(self, tmp_path):
        import random

        from repro.verify import fuzz

        rng = random.Random("obs-trace-dir")
        params = fuzz.gen_sim_case(rng)
        failure = fuzz.FuzzFailure(
            check="sim_invariants",
            seed=0,
            index=0,
            params=params,
            messages=("synthetic",),
        )
        path = fuzz.write_failure_trace(failure, tmp_path)
        assert path is not None
        assert json.loads(open(path).read())["traceEvents"]
        non_sim = fuzz.FuzzFailure(
            check="pacing_plan",
            seed=0,
            index=1,
            params={},
            messages=("synthetic",),
        )
        assert fuzz.write_failure_trace(non_sim, tmp_path) is None
