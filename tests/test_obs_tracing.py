"""Distributed tracing, metrics exposition and the ``repro top`` view.

Pins the observability PR's contracts end to end:

* :class:`~repro.obs.tracectx.TraceContext` minting/serialisation;
* ledger trace stamping — and byte-identity when tracing is off;
* the executor → work-queue → worker round trip: chunk contexts ship
  in chunk files, worker spans parent into the coordinator's map span,
  and :func:`~repro.obs.tracemerge.merge_traces` stitches the ledgers
  into one Chrome trace with zero orphan parents;
* :mod:`~repro.obs.expo` render/parse round trips, strictness, and the
  work-queue sample mapping;
* metrics-layer regressions (non-finite histogram input);
* :func:`~repro.obs.top.render_dashboard` / ``top_loop`` behaviour;
* the service's ``/v1/metrics`` endpoint over real HTTP.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs.expo import (
    parse_prometheus,
    render_prometheus,
    sample_value,
    sanitize_name,
    workqueue_samples,
)
from repro.obs.ledger import MemoryLedger, RunLedger
from repro.obs.metrics import BoundedHistogram, MetricsRegistry
from repro.obs.top import render_dashboard, top_loop
from repro.obs.tracectx import TraceContext, coerce_trace
from repro.obs.tracemerge import (
    load_trace_file,
    merge_traces,
    orphan_parents,
    write_merged_trace,
)


class TestTraceContext:
    def test_root_mints_well_formed_ids(self):
        root = TraceContext.root()
        assert len(root.trace_id) == 32
        assert len(root.span_id) == 16
        assert root.parent_span_id is None
        int(root.trace_id, 16)  # hex or raises
        int(root.span_id, 16)

    def test_child_shares_trace_and_parents_correctly(self):
        root = TraceContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == root.span_id
        assert child.span_id != root.span_id
        grandchild = child.child()
        assert grandchild.parent_span_id == child.span_id

    def test_dict_round_trip(self):
        root = TraceContext.root()
        assert "parent_span_id" not in root.to_dict()
        assert TraceContext.from_dict(root.to_dict()) == root
        child = root.child()
        dumped = child.to_dict()
        assert dumped["parent_span_id"] == root.span_id
        assert TraceContext.from_dict(dumped) == child

    def test_coerce_accepts_context_dict_and_none(self):
        root = TraceContext.root()
        assert coerce_trace(None) is None
        assert coerce_trace(root) is root
        assert coerce_trace(root.to_dict()) == root

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceContext(trace_id="", span_id="abc")
        with pytest.raises(ConfigurationError):
            TraceContext.from_dict({"trace_id": "only"})
        with pytest.raises(ConfigurationError):
            TraceContext.from_dict("not-a-dict")


class TestLedgerTracing:
    def test_traced_events_carry_ids_untraced_are_byte_identical(
        self, tmp_path
    ):
        # The zero-overhead contract: an untraced ledger must emit the
        # exact record shape it emitted before tracing existed.
        plain = MemoryLedger(run_id="r")
        plain.event("run_start", n=1)
        assert "trace_id" not in plain.events[-1]
        assert "span_id" not in plain.events[-1]

        root = TraceContext.root()
        traced = MemoryLedger(run_id="r", trace=root)
        traced.event("run_start", n=1)
        record = traced.events[-1]
        assert record["trace_id"] == root.trace_id
        assert record["span_id"] == root.span_id

    def test_span_opens_child_context(self, tmp_path):
        root = TraceContext.root()
        ledger = RunLedger(tmp_path / "run.jsonl", trace=root)
        with ledger.span("phase"):
            ledger.event("checkpoint", step=1)
        ledger.close()
        _, records = load_trace_file(tmp_path / "run.jsonl")
        spans = [r for r in records if r["kind"] == "span_start"]
        inner = [r for r in records if r["kind"] == "checkpoint"]
        assert spans and inner
        assert spans[0]["parent_span_id"] == root.span_id
        assert spans[0]["span_id"] != root.span_id
        # The inner event lives in the span's context.
        assert inner[0]["span_id"] == spans[0]["span_id"]

    def test_file_and_memory_ledgers_build_the_same_records(self, tmp_path):
        # One record builder: the two ledgers differ only in where a
        # record goes, so a traced span reads the same in both.
        root = TraceContext.root()
        file_ledger = RunLedger(tmp_path / "run.jsonl", trace=root)
        memory = MemoryLedger(run_id=file_ledger.run_id, trace=root)
        memory.event("ledger_open")  # keep the two id sequences aligned
        for ledger in (file_ledger, memory):
            with ledger.span("phase", step=1):
                ledger.event("checkpoint", n=2)
        file_ledger.close()
        _, written = load_trace_file(tmp_path / "run.jsonl")

        def shape(record):
            return {
                key: value
                for key, value in record.items()
                if key not in ("t", "s", "span_id", "environment", "git")
            }

        assert [shape(r) for r in written] == [
            shape(r) for r in memory.events
        ]
        file_spans = [r["span_id"] for r in written[1:]]
        memory_spans = [r["span_id"] for r in memory.events[1:]]
        assert len(set(file_spans)) == len(set(memory_spans)) == 1
        assert written[1]["parent_span_id"] == root.span_id

    def test_bind_trace_is_none_safe(self):
        ledger = MemoryLedger(run_id="r")
        with ledger.bind_trace(None):
            ledger.event("run_start")
        assert "trace_id" not in ledger.events[-1]


def _trace_square(x: int) -> int:
    return x * x


class TestDistributedTraceRoundTrip:
    def test_chunk_contexts_parent_across_processes(self, tmp_path):
        # Coordinator in a thread, worker in this thread — the queue
        # files and ledgers are exactly what two processes would see.
        from repro.core.executor import WorkQueueExecutor
        from repro.core.worker import worker_loop

        root = TraceContext.root()
        ledger_path = tmp_path / "coordinator.jsonl"
        ledger = RunLedger(ledger_path, trace=root)
        executor = WorkQueueExecutor(
            tmp_path / "q",
            workers=0,
            spawn_workers=False,
            chunk_size=2,
            poll_s=0.01,
            timeout_s=60.0,
        )
        holder: dict = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                outcomes=executor.map(
                    _trace_square, list(range(6)), ledger=ledger
                )
            )
        )
        thread.start()
        worker_loop(
            tmp_path / "q", worker_id="tw", max_idle_s=30.0, poll_s=0.01
        )
        thread.join(timeout=60.0)
        ledger.close()
        assert [o.value for o in holder["outcomes"]] == [
            x * x for x in range(6)
        ]

        worker_ledger = tmp_path / "q" / "ledgers" / "worker-tw.jsonl"
        assert worker_ledger.exists()
        _, coordinator = load_trace_file(ledger_path)
        _, worker = load_trace_file(worker_ledger)

        map_spans = [
            r
            for r in coordinator
            if r["kind"] == "span_start" and r.get("name") == "queue map"
        ]
        assert len(map_spans) == 1
        map_span_id = map_spans[0]["span_id"]
        worker_spans = [r for r in worker if r["kind"] == "span_start"]
        assert worker_spans
        # Every worker chunk span parents directly into the
        # coordinator's map span, one trace id throughout.
        for span in worker_spans:
            assert span["parent_span_id"] == map_span_id
            assert span["trace_id"] == root.trace_id
        assert orphan_parents([coordinator, worker]) == set()

        merged = merge_traces([ledger_path, worker_ledger])
        assert merged["otherData"]["orphan_parents"] == []
        assert merged["otherData"]["trace_ids"] == [root.trace_id]
        phases = {e.get("ph") for e in merged["traceEvents"]}
        assert "X" in phases
        # Cross-process parenting draws flow arrows.
        assert "s" in phases and "f" in phases

    def test_untraced_map_ships_no_context_and_no_worker_ledger(
        self, tmp_path
    ):
        from repro.core.executor import WorkQueueExecutor
        from repro.core.worker import worker_loop

        executor = WorkQueueExecutor(
            tmp_path / "q",
            workers=0,
            spawn_workers=False,
            chunk_size=2,
            poll_s=0.01,
            timeout_s=60.0,
        )
        holder: dict = {}
        thread = threading.Thread(
            target=lambda: holder.update(
                outcomes=executor.map(_trace_square, [1, 2, 3])
            )
        )
        thread.start()
        worker_loop(
            tmp_path / "q", worker_id="uw", max_idle_s=30.0, poll_s=0.01
        )
        thread.join(timeout=60.0)
        assert [o.value for o in holder["outcomes"]] == [1, 4, 9]
        assert not (tmp_path / "q" / "ledgers").exists()


class TestTraceMerge:
    def test_load_classifies_jsonl_array_envelope_and_chrome(
        self, tmp_path
    ):
        jsonl = tmp_path / "a.jsonl"
        jsonl.write_text('{"kind": "run_start", "t": 1.0}\n', "utf-8")
        assert load_trace_file(jsonl)[0] == "ledger"

        array = tmp_path / "b.json"
        array.write_text('[{"kind": "run_end", "t": 2.0}]', "utf-8")
        assert load_trace_file(array)[0] == "ledger"

        envelope = tmp_path / "c.json"
        envelope.write_text(
            '{"events": [{"kind": "run_start", "t": 0.5}]}', "utf-8"
        )
        fmt, records = load_trace_file(envelope)
        assert fmt == "ledger" and records[0]["kind"] == "run_start"

        chrome = tmp_path / "d.json"
        chrome.write_text('{"traceEvents": []}', "utf-8")
        assert load_trace_file(chrome)[0] == "chrome"

        garbage = tmp_path / "e.txt"
        garbage.write_text("not a trace\n", "utf-8")
        with pytest.raises(ConfigurationError):
            load_trace_file(garbage)

    def test_torn_jsonl_tail_is_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"kind": "run_start", "t": 1.0}\n{"kind": "span_st', "utf-8"
        )
        fmt, records = load_trace_file(path)
        assert fmt == "ledger" and len(records) == 1

    def test_orphan_parents_tolerates_duplicate_spans(self):
        # A stolen chunk re-emits under the same shipped identity:
        # duplicates are fine, only truly undefined parents are orphans.
        coordinator = [{"kind": "span_start", "span_id": "p1"}]
        worker_a = [
            {"kind": "span_start", "span_id": "c1", "parent_span_id": "p1"}
        ]
        worker_b = [
            {"kind": "span_start", "span_id": "c1", "parent_span_id": "p1"}
        ]
        assert orphan_parents([coordinator, worker_a, worker_b]) == set()
        assert orphan_parents([worker_a]) == {"p1"}

    def test_unmatched_span_start_degrades_to_instant(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        records = [
            {"kind": "span_start", "id": 1, "name": "chunk 0", "t": 5.0}
        ]
        path.write_text(
            "\n".join(json.dumps(r) for r in records) + "\n", "utf-8"
        )
        merged = merge_traces([path])
        instants = [
            e
            for e in merged["traceEvents"]
            if e.get("ph") == "i" and e.get("name") == "chunk 0"
        ]
        assert len(instants) == 1

    def test_write_merged_trace_is_loadable_chrome_json(self, tmp_path):
        ledger = RunLedger(
            tmp_path / "run.jsonl", trace=TraceContext.root()
        )
        with ledger.span("work"):
            pass
        ledger.close()
        out = tmp_path / "merged.json"
        write_merged_trace([tmp_path / "run.jsonl"], out)
        document = json.loads(out.read_text("utf-8"))
        assert isinstance(document["traceEvents"], list)
        assert document["otherData"]["orphan_parents"] == []


class TestExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("serve.cancelled").inc(3)
        registry.gauge("serve.in_flight").set(2)
        hist = registry.histogram("serve.job_ms.edram_tradeoff")
        for value in (1.0, 2.0, 3.0, 10.0):
            hist.record(value)
        text = render_prometheus(
            registry.snapshot(),
            extra=[
                {
                    "name": "serve.jobs",
                    "value": 1,
                    "labels": {"status": "done"},
                }
            ],
            labels_from={"serve.job_ms": "workload"},
        )
        parsed = parse_prometheus(text)
        assert parsed["families"]["repro_serve_cancelled"] == "counter"
        assert parsed["families"]["repro_serve_job_ms"] == "summary"
        assert sample_value(parsed, "repro_serve_cancelled") == 3
        assert sample_value(parsed, "repro_serve_in_flight") == 2
        assert (
            sample_value(
                parsed,
                "repro_serve_job_ms_count",
                workload="edram_tradeoff",
            )
            == 4
        )
        assert sample_value(parsed, "repro_serve_jobs", status="done") == 1

    def test_sanitize_prefixes_and_cleans(self):
        assert sanitize_name("serve.job_ms") == "repro_serve_job_ms"
        assert sanitize_name("a-b c") == "repro_a_b_c"

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ConfigurationError):
            parse_prometheus("repro_x{broken 1\n")
        with pytest.raises(ConfigurationError):
            parse_prometheus("not a sample line\n")
        # A sample with no TYPE declaration is a rendering bug.
        with pytest.raises(ConfigurationError):
            parse_prometheus("repro_untyped 1\n")

    def test_label_escaping_round_trips(self):
        text = render_prometheus(
            {},
            extra=[
                {
                    "name": "serve.note",
                    "value": 1,
                    "labels": {"detail": 'quote " slash \\ nl \n end'},
                }
            ],
        )
        parsed = parse_prometheus(text)
        _, labels, _ = parsed["samples"][0]
        assert labels["detail"] == 'quote " slash \\ nl \n end'

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("serve.x").inc()
        with pytest.raises(ConfigurationError):
            render_prometheus(
                registry.snapshot(),
                extra=[{"name": "serve.x", "value": 1, "type": "gauge"}],
            )

    def test_workqueue_samples_cover_liveness(self):
        status = {
            "pending": 3,
            "leased": 1,
            "expired": 0,
            "completed": 2,
            "done": False,
            "lease_ages": {"chunk-000001": 0.5},
            "workers": [
                {"worker": "w1", "pid": 42, "t": 99.0, "chunks_done": 2}
            ],
        }
        text = render_prometheus(
            {}, extra=workqueue_samples(status, now=100.0)
        )
        parsed = parse_prometheus(text)
        assert sample_value(parsed, "repro_workqueue_pending") == 3
        assert sample_value(parsed, "repro_workqueue_done") == 0
        assert (
            sample_value(
                parsed, "repro_workqueue_lease_age_s", lease="chunk-000001"
            )
            == 0.5
        )
        assert (
            sample_value(
                parsed, "repro_workqueue_worker_heartbeat_age_s", worker="w1"
            )
            == 1.0
        )
        assert (
            parsed["families"]["repro_workqueue_worker_chunks_done"]
            == "counter"
        )


class TestMetricsRegressions:
    def test_histogram_rejects_non_finite(self):
        hist = BoundedHistogram()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                hist.record(bad)

    def test_single_sample_percentiles(self):
        hist = BoundedHistogram()
        hist.record(7.0)
        assert hist.percentile(0) == 7.0
        assert hist.percentile(50) == 7.0
        assert hist.percentile(100) == 7.0


class TestTopDashboard:
    SCRAPE = "\n".join(
        [
            "# TYPE repro_serve_jobs gauge",
            'repro_serve_jobs{status="done"} 3',
            'repro_serve_jobs{status="running"} 1',
            "# TYPE repro_serve_in_flight gauge",
            "repro_serve_in_flight 1",
            "# TYPE repro_serve_coalesced gauge",
            "repro_serve_coalesced 0",
            "# TYPE repro_serve_cache_hit_ratio gauge",
            "repro_serve_cache_hit_ratio 0.5",
            "# TYPE repro_serve_job_ms summary",
            'repro_serve_job_ms{quantile="0.5",'
            'workload="edram_tradeoff"} 12.5',
            'repro_serve_job_ms{quantile="0.95",'
            'workload="edram_tradeoff"} 40',
            'repro_serve_job_ms{quantile="0.99",'
            'workload="edram_tradeoff"} 41',
            'repro_serve_job_ms_count{workload="edram_tradeoff"} 4',
            'repro_serve_job_ms_sum{workload="edram_tradeoff"} 80',
            "# TYPE repro_workqueue_lease_age_s gauge",
            'repro_workqueue_lease_age_s{lease="chunk-000002"} 1.25',
        ]
    ) + "\n"

    def test_render_dashboard_shows_the_story(self):
        frame = render_dashboard(self.SCRAPE, title="t")
        assert "jobs      4 (done=3, running=1)" in frame
        assert "queue     in-flight 1\n" in frame
        assert "pressure  coalesced 0   cache-hit 50%" in frame
        assert "breaker" not in frame
        assert "edram_tradeoff" in frame
        assert "12.50" in frame
        assert "chunk-000002" in frame

    def test_top_loop_once_plain_text(self):
        out = io.StringIO()
        frames = top_loop(
            lambda: self.SCRAPE, out, iterations=1, is_tty=False
        )
        assert frames == 1
        assert "\x1b" not in out.getvalue()
        assert "jobs" in out.getvalue()

    def test_top_loop_tty_clears_screen(self):
        out = io.StringIO()
        top_loop(lambda: self.SCRAPE, out, iterations=2, is_tty=True,
                 sleep=lambda _s: None)
        assert out.getvalue().count("\x1b[H\x1b[2J") == 2

    def test_top_loop_unreachable_renders_error_frame(self):
        def failing():
            raise OSError("connection refused")

        out = io.StringIO()
        frames = top_loop(failing, out, iterations=1, is_tty=False)
        assert frames == 1
        assert "unreachable" in out.getvalue()


class TestServiceMetricsEndpoint:
    def test_http_scrape_parses_and_counts_jobs(self):
        from repro.serve.testing import running_server

        with running_server() as (server, client):
            result = client.run(
                {
                    "kind": "sweep",
                    "workload": "edram_tradeoff",
                    "axes": {"width": [16, 32], "banks": [2]},
                },
                timeout_s=60.0,
            )
            assert result["ok"]
            text = client.metrics_text()
            parsed = parse_prometheus(text)
            assert (
                sample_value(parsed, "repro_serve_jobs", status="done")
                >= 1
            )
            assert sample_value(parsed, "repro_serve_executions") == 1
            assert sample_value(parsed, "repro_serve_in_flight") == 0
            assert (
                sample_value(
                    parsed,
                    "repro_serve_job_ms_count",
                    workload="edram_tradeoff",
                )
                == 1
            )
            # A series that does not exist resolves to None, not a crash.
            assert sample_value(parsed, "repro_serve_no_such") is None

    def test_metrics_route_rejects_post(self):
        import http.client

        from repro.serve.testing import running_server

        with running_server() as (server, client):
            connection = http.client.HTTPConnection(
                client.host, client.port, timeout=10.0
            )
            connection.request("POST", "/v1/metrics")
            response = connection.getresponse()
            assert response.status == 405
            connection.close()

    def test_tracing_off_mints_no_contexts(self):
        from repro.serve.testing import in_process_service

        with in_process_service(tracing=False) as (service, client):
            submitted = client.submit(
                {
                    "kind": "sweep",
                    "workload": "edram_tradeoff",
                    "axes": {"width": [16], "banks": [2]},
                }
            )
            final = client.wait(submitted["job_id"], timeout_s=60.0)
            assert final["status"] == "done"
            report = client.report(submitted["job_id"])
            assert report["trace_id"] is None

    def test_traced_job_report_carries_trace_id(self):
        from repro.serve.testing import in_process_service

        with in_process_service() as (service, client):
            submitted = client.submit(
                {
                    "kind": "sweep",
                    "workload": "edram_tradeoff",
                    "axes": {"width": [16], "banks": [4]},
                }
            )
            client.wait(submitted["job_id"], timeout_s=60.0)
            report = client.report(submitted["job_id"])
            assert isinstance(report["trace_id"], str)
            assert len(report["trace_id"]) == 32
            # The rendered report names the trace and the merge recipe.
            assert report["trace_id"] in report["markdown"]
            assert "repro trace --merge" in report["markdown"]
