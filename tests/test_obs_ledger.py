"""Tests for the run ledger, progress reporter and their sweep wiring.

Pins the three telemetry contracts of docs/OBSERVABILITY.md:

* a resumed sweep writes ONE continuous ledger (no duplicate event
  ids, a ``resume`` event at the seam) and identical results;
* telemetry never changes results — a sweep with ledger + progress on
  produces bit-identical :func:`result_fingerprint`\\ s;
* a pool sweep's ``chunk`` events carry each chunk's worker wall time.
"""

import io
import json
import subprocess

import pytest

from repro.core.executor import LocalPoolExecutor
from repro.core.sweep import Sweep
from repro.errors import ConfigurationError
from repro.obs.ledger import RunLedger, coerce_ledger
from repro.obs.progress import ProgressReporter, _format_eta
from repro.obs.workloads import mpeg2_decoder_simulator
from repro.verify.differential import result_fingerprint


def read_events(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _sim_point(cycles, load):
    simulator = mpeg2_decoder_simulator(
        cycles=cycles, warmup_cycles=50, load=load
    )
    return result_fingerprint(simulator.run())


class TestRunLedger:
    def test_fresh_ledger_opens_with_provenance(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            assert not ledger.resumed
            ledger.event("run_start", workload="test")
        events = read_events(path)
        assert events[0]["kind"] == "ledger_open"
        assert "python" in events[0]["environment"]
        assert [e["id"] for e in events] == list(range(len(events)))
        assert len({e["run"] for e in events}) == 1

    def test_git_provenance_computed_once_per_process(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real_run = subprocess.run

        def fake_run(argv, **kwargs):
            if argv[0] != "git":
                return real_run(argv, **kwargs)
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout="abc\n")

        monkeypatch.setattr(subprocess, "run", fake_run)
        # A directory no earlier ledger in this process opened from.
        monkeypatch.chdir(tmp_path)
        for name in ("one.jsonl", "two.jsonl"):
            RunLedger(tmp_path / name).close()
        assert len(calls) == 2
        events = read_events(tmp_path / "two.jsonl")
        assert events[0]["git"] == {"commit": "abc", "dirty": True}

    def test_span_records_duration_and_link(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            with ledger.span("phase", detail=1) as span_id:
                pass
        start, end = read_events(path)[1:]
        assert start["kind"] == "span_start"
        assert end["kind"] == "span_end"
        assert end["span"] == span_id == start["id"]
        assert end["s"] >= 0

    def test_reopen_continues_ids_and_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as first:
            run_id = first.run_id
            first.event("run_start", workload="a")
        with RunLedger(path) as second:
            assert second.resumed
            assert second.run_id == run_id
            second.event("run_start", workload="b")
        events = read_events(path)
        ids = [e["id"] for e in events]
        assert ids == list(range(len(events)))
        assert sum(1 for e in events if e["kind"] == "resume") == 1
        assert {e["run"] for e in events} == {run_id}

    def test_resume_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLedger(path) as ledger:
            run_id = ledger.run_id
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"id": 55, "run": "' + run_id + '", "ki')
        resumed = RunLedger(path)
        resumed.close()
        assert resumed.run_id == run_id
        # The torn line never parsed, so ids continue from the last
        # intact event, not the torn fragment's id.
        from repro.reporting.runreport import load_ledger

        tail = load_ledger(path)[-1]
        assert tail["kind"] == "resume"
        assert tail["id"] == 1

    def test_empty_kind_rejected(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        with pytest.raises(ConfigurationError):
            ledger.event("")
        ledger.close()

    def test_coerce_ledger_contract(self, tmp_path):
        assert coerce_ledger(None) == (None, False)
        opened = RunLedger(tmp_path / "a.jsonl")
        assert coerce_ledger(opened) == (opened, False)
        opened.close()
        owned, owns = coerce_ledger(str(tmp_path / "b.jsonl"))
        assert owns and isinstance(owned, RunLedger)
        owned.close()
        with pytest.raises(ConfigurationError):
            coerce_ledger(42)


class TestProgressReporter:
    def test_disabled_reporter_writes_nothing(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=10, stream=stream)
        reporter.start()
        reporter.update(done=5)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_enabled_reporter_renders_rate_and_eta(self):
        stream = io.StringIO()
        ticks = iter([0.0, 1.0, 2.0, 2.0])
        reporter = ProgressReporter(
            total=10,
            stream=stream,
            enabled=True,
            min_interval_s=0.0,
            clock=lambda: next(ticks),
        )
        reporter.start()
        reporter.update(done=4, failed=1)
        reporter.finish()
        output = stream.getvalue()
        assert "5/10 50%" in output
        assert "failed 1" in output
        assert "eta" in output
        assert output.endswith("\n")

    def test_update_clamps_past_total(self):
        stream = io.StringIO()
        reporter = ProgressReporter(
            total=4, stream=stream, enabled=True, min_interval_s=0.0
        )
        reporter.update(done=9)
        assert "4/4 100%" in stream.getvalue()

    def test_throttle_limits_renders(self):
        stream = io.StringIO()
        ticks = iter([0.0] + [0.01] * 50)
        reporter = ProgressReporter(
            total=50,
            stream=stream,
            enabled=True,
            min_interval_s=10.0,
            clock=lambda: next(ticks),
        )
        reporter.start()
        for _ in range(20):
            reporter.update(done=1)
        assert stream.getvalue().count("\r") <= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProgressReporter(total=-1)
        with pytest.raises(ConfigurationError):
            ProgressReporter(total=1, min_interval_s=-0.5)

    def test_format_eta(self):
        assert _format_eta(65) == "1:05"
        assert _format_eta(3600) == "1:00:00"
        assert _format_eta(0) == "0:00"

    def test_prefilled_points_excluded_from_rate(self):
        # Regression: a journal/store resume that skipped thousands of
        # points in the first throttle window used to count them as
        # measured rate and extrapolate a garbage ETA from the burst.
        stream = io.StringIO()
        ticks = iter([10.0, 11.0, 12.0, 12.0])
        reporter = ProgressReporter(
            total=100,
            stream=stream,
            enabled=True,
            min_interval_s=0.0,
            clock=lambda: next(ticks),
        )
        reporter.start()
        reporter.prefill(done=50)
        # No fresh point yet: no rate to extrapolate, ETA is unknown —
        # not "50 points in one second, done in a second".
        first = stream.getvalue()
        assert "0.0/s" in first
        assert "eta —" in first
        reporter.update(done=10)
        # Rate covers only the 10 fresh points over 2s: 5.0/s, so the
        # 40 remaining points are 8 seconds out.
        second = stream.getvalue()
        assert "5.0/s" in second
        assert "eta 0:08" in second

    def test_all_cached_resume_renders_clean_completion(self):
        # The all-journal-skipped first window: every point arrives
        # via prefill, zero remain — the final line must pin 100% and
        # eta 0:00, never a division-shaped garbage value.
        stream = io.StringIO()
        ticks = iter([0.0, 1.0, 1.0, 1.0])
        reporter = ProgressReporter(
            total=8,
            stream=stream,
            enabled=True,
            min_interval_s=0.0,
            clock=lambda: next(ticks),
        )
        reporter.start()
        reporter.prefill(done=6, failed=2)
        reporter.finish()
        output = stream.getvalue()
        assert "8/8 100%" in output
        assert "eta 0:00" in output
        assert "failed 2" in output


class TestSweepLedger:
    AXES = {"x": [1, 2, 3], "y": [10, 20]}

    def test_sweep_emits_run_events(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        Sweep(axes=self.AXES).run(lambda x, y: x * y, ledger=path)
        kinds = [e["kind"] for e in read_events(path)]
        assert kinds[0] == "ledger_open"
        assert "run_start" in kinds
        assert kinds[-1] == "run_end"
        end = read_events(path)[-1]
        assert end["status"] == "ok"
        assert end["n_ok"] == 6

    def test_resumed_sweep_one_continuous_ledger(self, tmp_path):
        """Interrupt, resume: no duplicate ids, one resume event,
        results identical to an uninterrupted run."""
        ledger = tmp_path / "sweep.jsonl"
        journal = tmp_path / "sweep.journal.jsonl"
        sweep = Sweep(axes=self.AXES)

        def interrupted(x, y):
            if x == 3:
                raise RuntimeError("simulated crash")
            return x * y

        with pytest.raises(RuntimeError):
            sweep.run(interrupted, ledger=ledger, journal=journal)
        first_events = read_events(ledger)
        assert first_events[-1]["kind"] == "run_end"
        assert first_events[-1]["status"] == "error"

        resumed = sweep.run(lambda x, y: x * y, ledger=ledger,
                            journal=journal)
        fresh = Sweep(axes=self.AXES).run(lambda x, y: x * y)
        assert [(p.parameters, p.result) for p in resumed.points] == [
            (p.parameters, p.result) for p in fresh.points
        ]
        events = read_events(ledger)
        ids = [e["id"] for e in events]
        assert len(ids) == len(set(ids))
        assert ids == list(range(len(events)))
        assert sum(1 for e in events if e["kind"] == "resume") == 1
        assert len({e["run"] for e in events}) == 1
        second_start = [
            e for e in events if e["kind"] == "run_start"
        ][-1]
        assert second_start["journaled_points"] == 4

    def test_quarantines_logged(self, tmp_path):
        from repro.errors import InfeasibleError

        path = tmp_path / "sweep.jsonl"

        def flaky(x, y):
            if x == 2:
                raise InfeasibleError("nope")
            return x * y

        result = Sweep(axes=self.AXES).run(
            flaky, skip_errors=True, ledger=path
        )
        assert len(result.failures) == 2
        quarantines = [
            e for e in read_events(path) if e["kind"] == "quarantine"
        ]
        assert len(quarantines) == 2
        assert quarantines[0]["parameters"]["x"] == 2

    def test_telemetry_preserves_result_fingerprints(self, tmp_path):
        """The acceptance contract: ledger + progress on produces
        bit-identical result fingerprints vs observability off."""
        sweep = Sweep(axes={"cycles": [300, 500], "load": [0.8, 1.2]})
        plain = sweep.run(_sim_point)
        stream = io.StringIO()
        observed = sweep.run(
            _sim_point,
            ledger=tmp_path / "sweep.jsonl",
            progress=ProgressReporter(
                total=sweep.n_points,
                stream=stream,
                enabled=True,
                min_interval_s=0.0,
            ),
        )
        assert [(p.parameters, p.result) for p in plain.points] == [
            (p.parameters, p.result) for p in observed.points
        ]
        assert "4/4" in stream.getvalue()

    def test_parallel_sweep_chunks_carry_worker_wall_time(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        Sweep(axes={"x": list(range(4))}).run(
            _sleep_10ms,
            executor=LocalPoolExecutor(workers=2, chunk_size=2),
            ledger=path,
        )
        events = read_events(path)
        chunks = [e for e in events if e["kind"] == "chunk"]
        assert sorted(e["index"] for e in chunks) == [0, 1]
        assert all(e["s"] >= 0.02 for e in chunks), chunks
        assert not [e for e in events if e["kind"] == "metrics"]


# Module-level so the process pool can pickle it (kwargs form for Sweep).
def _sleep_10ms(x):
    import time

    time.sleep(0.01)
    return x
