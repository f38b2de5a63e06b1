"""Tests for run reports, the bench history and the regression gate."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.executor import LocalPoolExecutor
from repro.core.sweep import Sweep
from repro.errors import ConfigurationError, InfeasibleError
from repro.reporting.runreport import (
    append_history,
    check_regression,
    history_entry,
    load_history,
    load_ledger,
    render_html,
    render_markdown,
    render_regression,
    summarize_ledger,
)


def _failing_eval(x, y):
    if x == 2:
        raise InfeasibleError("bad point")
    return x * y


@pytest.fixture
def sweep_ledger(tmp_path):
    path = tmp_path / "sweep.jsonl"
    Sweep(axes={"x": [1, 2, 3], "y": [10, 20]}).run(
        _failing_eval,
        skip_errors=True,
        ledger=path,
        executor=LocalPoolExecutor(workers=2, chunk_size=2),
    )
    return path


class TestLedgerSummary:
    def test_load_ledger_skips_torn_lines(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_text(
            '{"id": 0, "t": 1.0, "run": "r", "kind": "run_start"}\n'
            '{"id": 1, "t": 2.0, "run": "r", "ki\n'
        )
        events = load_ledger(path)
        assert len(events) == 1

    def test_load_missing_or_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_ledger(tmp_path / "absent.jsonl")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ConfigurationError):
            load_ledger(empty)

    def test_summary_of_a_real_sweep(self, sweep_ledger):
        summary = summarize_ledger(load_ledger(sweep_ledger))
        assert summary["runs"][0]["workload"] == "sweep"
        assert summary["runs"][0]["status"] == "ok"
        assert summary["runs"][0]["n_failed"] == 2
        assert summary["resilience"]["quarantine"] == 2
        assert len(summary["quarantines"]) == 2
        assert summary["provenance"]["environment"]["python"]
        # Chunks come sorted slowest-first for the top-N table.
        chunk_times = [c["s"] for c in summary["chunks"]]
        assert chunk_times == sorted(chunk_times, reverse=True)
        # Pool chunks carry their worker wall time.
        assert all(s > 0.0 for s in chunk_times)
        assert "metrics" not in summary

    def test_markdown_report_sections(self, sweep_ledger):
        summary = summarize_ledger(load_ledger(sweep_ledger))
        markdown = render_markdown(summary, top=3)
        assert "# Run report" in markdown
        assert "## Runs" in markdown
        assert "## Resilience" in markdown
        assert "Quarantined points" in markdown
        assert "bad point" in markdown

    def test_html_report_is_self_contained(self, sweep_ledger):
        summary = summarize_ledger(load_ledger(sweep_ledger))
        html = render_html(summary)
        assert html.startswith("<!doctype html>")
        assert "<h1>Run report</h1>" in html
        assert "src=" not in html  # no external assets
        assert "href=" not in html

    def test_legacy_metrics_event_counted_not_rendered(self, sweep_ledger):
        # Ledgers written before the run ledger became the only
        # telemetry record may end in a `metrics` snapshot event: it
        # still counts as an event but no longer gets a report section.
        events = load_ledger(sweep_ledger)
        legacy = {
            "id": len(events), "t": events[-1]["t"], "run": events[-1]["run"],
            "kind": "metrics",
            "snapshot": {"counters": {"parallel_map.runs": 1},
                         "gauges": {}, "histograms": {}},
        }
        with open(sweep_ledger, "a") as handle:
            handle.write(json.dumps(legacy) + "\n")
        summary = summarize_ledger(load_ledger(sweep_ledger))
        assert "metrics" not in summary
        assert summary["events_by_kind"]["metrics"] == 1
        markdown = render_markdown(summary)
        assert "## Metrics" not in markdown
        assert "parallel_map.runs" not in markdown
        html = render_html(summary)
        assert "<h2>Metrics</h2>" not in html
        assert "parallel_map.runs" not in html

    def test_explorer_ledger_has_phase_waterfall(self, tmp_path):
        from repro.core.explorer import DesignSpaceExplorer
        from repro.core.requirements import ApplicationRequirements
        from repro.units import MBIT

        path = tmp_path / "explore.jsonl"
        DesignSpaceExplorer().explore(
            ApplicationRequirements(
                name="t",
                capacity_bits=4 * MBIT,
                sustained_bandwidth_bits_per_s=2e9,
                locality=0.6,
            ),
            ledger=path,
        )
        summary = summarize_ledger(load_ledger(path))
        names = [span["name"] for span in summary["spans"]]
        assert names == ["enumerate", "evaluate", "frontier"]
        markdown = render_markdown(summary)
        assert "## Phase waterfall" in markdown


def _report(seconds):
    return {
        "sections": {
            "sim": {
                "fast_seconds": seconds,
                "speedup": 4.0,
                "bit_identical": True,
            }
        }
    }


class TestRegressionGate:
    def test_history_entry_keeps_numbers_drops_bools(self):
        entry = history_entry(_report(1.0), mode="smoke", commit="c0ffee")
        assert entry["sections"]["sim"]["fast_seconds"] == 1.0
        assert "bit_identical" not in entry["sections"]["sim"]
        assert entry["mode"] == "smoke"
        assert entry["commit"] == "c0ffee"

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(path, _report(1.0), mode="smoke")
        append_history(path, _report(1.1), mode="smoke")
        entries = load_history(path)
        assert len(entries) == 2
        assert entries[1]["sections"]["sim"]["fast_seconds"] == 1.1

    def test_first_run_passes_trivially(self):
        verdict = check_regression([history_entry(_report(9.9), "smoke")])
        assert verdict["ok"]
        assert verdict["baseline_runs"] == 0
        assert verdict["compared"] == 0
        rendered = render_regression(verdict, 0.3)
        assert "NOTHING COMPARED" in rendered
        assert "ok —" not in rendered

    def test_steady_history_passes(self):
        entries = [
            history_entry(_report(s), "smoke")
            for s in (1.0, 1.05, 0.95, 1.02)
        ]
        verdict = check_regression(entries)
        assert verdict["ok"]
        assert verdict["compared"] == 1
        assert "ok — 1 metric(s) compared" in render_regression(verdict, 0.3)

    def test_two_x_slowdown_fails(self):
        entries = [
            history_entry(_report(s), "smoke") for s in (1.0, 1.0, 1.0)
        ] + [history_entry(_report(2.0), "smoke")]
        verdict = check_regression(entries)
        assert not verdict["ok"]
        finding = verdict["findings"][0]
        assert finding["metric"] == "fast_seconds"
        assert finding["ratio"] == pytest.approx(2.0)
        assert "REGRESSION" in render_regression(verdict, 0.3)

    def test_other_modes_excluded_from_baseline(self):
        entries = [
            history_entry(_report(0.1), "full"),
            history_entry(_report(1.0), "smoke"),
            history_entry(_report(1.1), "smoke"),
        ]
        verdict = check_regression(entries)
        assert verdict["ok"]
        assert verdict["baseline_runs"] == 1

    def test_history_entry_records_host_without_argv(self):
        from repro.obs.ledger import environment_fingerprint

        entry = history_entry(_report(1.0), "smoke")
        expected = environment_fingerprint()
        del expected["argv"]
        assert entry["host"] == expected
        assert json.loads(json.dumps(entry))["host"] == expected

    def test_other_hosts_excluded_from_baseline(self):
        def on_host(seconds, machine):
            entry = history_entry(_report(seconds), "smoke")
            entry["host"] = {**entry["host"], "machine": machine}
            return entry

        # A 2x slower candidate judged only against a slower host's
        # rows passes; against its own host's rows it fails.
        entries = [on_host(4.0, "slow-box") for _ in range(3)]
        entries.append(on_host(2.0, "fast-box"))
        verdict = check_regression(entries)
        assert verdict["ok"]
        assert verdict["baseline_runs"] == 0
        assert verdict["other_host_runs"] == 3
        # The vacuous pass is said plainly, with the ignored rows.
        assert "NOTHING COMPARED" in render_regression(verdict, 0.3)
        assert "3 row(s)" in render_regression(verdict, 0.3)
        entries.insert(0, on_host(1.0, "fast-box"))
        verdict = check_regression(entries)
        assert not verdict["ok"]
        assert verdict["baseline_runs"] == 1
        assert verdict["compared"] == 1

    def test_rows_without_host_never_count(self):
        legacy = history_entry(_report(1.0), "smoke")
        del legacy["host"]
        entries = [legacy, legacy, history_entry(_report(2.0), "smoke")]
        verdict = check_regression(entries)
        assert verdict["ok"]
        assert verdict["baseline_runs"] == 0
        # A candidate without a host has no comparable baseline either.
        assert check_regression([legacy, legacy])["baseline_runs"] == 0

    def test_window_bounds_the_baseline(self):
        # Old slow runs age out of the rolling window: only the last
        # `window` prior entries form the baseline.
        entries = [history_entry(_report(10.0), "smoke")] + [
            history_entry(_report(1.0), "smoke") for _ in range(5)
        ] + [history_entry(_report(1.8), "smoke")]
        assert not check_regression(entries, window=5)["ok"]
        # A window large enough to include the slow outlier shifts the
        # median enough... it does not here (median is robust), so the
        # gate still fails — pin that robustness.
        assert not check_regression(entries, window=6)["ok"]

    def test_non_seconds_metrics_ignored(self):
        fast = {"sections": {"sim": {"speedup": 100.0}}}
        entries = [
            history_entry(fast, "smoke"),
            history_entry({"sections": {"sim": {"speedup": 1.0}}}, "smoke"),
        ]
        assert check_regression(entries)["ok"]

    def test_validation(self):
        entry = history_entry(_report(1.0), "smoke")
        with pytest.raises(ConfigurationError):
            check_regression([])
        with pytest.raises(ConfigurationError):
            check_regression([entry], threshold=0.0)
        with pytest.raises(ConfigurationError):
            check_regression([entry], window=0)
        with pytest.raises(ConfigurationError):
            history_entry({"sections": "oops"}, "smoke")
        with pytest.raises(ConfigurationError):
            load_history("/nonexistent/hist.jsonl")


class TestReportCli:
    def test_report_renders_markdown_and_html(
        self, sweep_ledger, tmp_path, capsys
    ):
        md = tmp_path / "report.md"
        html = tmp_path / "report.html"
        rc = cli_main(
            ["report", str(sweep_ledger), "--out", str(md),
             "--html", str(html)]
        )
        assert rc == 0
        assert "# Run report" in md.read_text()
        assert html.read_text().startswith("<!doctype html>")

    def test_report_prom_renders_run_gauges(self, sweep_ledger, tmp_path):
        from repro.obs.expo import parse_prometheus, sample_value

        out = tmp_path / "report.prom"
        rc = cli_main(
            ["report", str(sweep_ledger), "--format", "prom",
             "--out", str(out)]
        )
        assert rc == 0
        parsed = parse_prometheus(out.read_text())
        assert parsed["families"] == {
            "repro_report_events": "gauge",
            "repro_report_resilience": "counter",
            "repro_report_wall_s": "gauge",
        }
        events = load_ledger(sweep_ledger)
        assert sample_value(parsed, "repro_report_events") == len(events)
        assert sample_value(
            parsed, "repro_report_resilience", kind="quarantine"
        ) == 2
        assert sample_value(
            parsed, "repro_report_resilience", kind="fallback"
        ) == 0

    def test_report_stdout_default(self, sweep_ledger, capsys):
        rc = cli_main(["report", str(sweep_ledger)])
        assert rc == 0
        assert "# Run report" in capsys.readouterr().out

    def test_report_without_inputs_errors(self, capsys):
        assert cli_main(["report"]) == 2

    def test_check_regression_pass_and_fail(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        for seconds in (1.0, 1.0, 1.0):
            append_history(history, _report(seconds), mode="smoke")
        rc = cli_main(
            ["report", "--check-regression", "--history", str(history)]
        )
        assert rc == 0
        append_history(history, _report(2.0), mode="smoke")
        rc = cli_main(
            ["report", "--check-regression", "--history", str(history)]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_metrics_merge_cli(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"counters": {"c": 2}}))
        b.write_text(json.dumps({"counters": {"c": 3}}))
        rc = cli_main(["metrics", "--merge", str(a), str(b)])
        assert rc == 0
        merged = json.loads(capsys.readouterr().out)
        assert merged["counters"]["c"] == 5

    def test_metrics_merge_bad_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["metrics", "--merge", str(bad)]) == 2
