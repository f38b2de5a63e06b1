"""Tests for resilient sweeps: failure quarantine, journal, cancellation.

The quarantine, resume and cancel tests run on every executor kind
``Sweep.run`` can be handed: evaluation goes through one path, so each
kind must journal, quarantine and cancel the same way.  Their evaluate
functions are module-level so the pool and the queue really fan out.
"""

import json
import time
import warnings

import pytest

from repro.core.executor import (
    LocalPoolExecutor,
    SerialExecutor,
    WorkQueueExecutor,
)
from repro.core.parallel import ParallelFallbackWarning
from repro.core.sweep import FailedPoint, Sweep, SweepJournal
from repro.errors import CancelledError, ConfigurationError, InfeasibleError
from repro.obs.progress import ProgressReporter


def _eval(x, y=1):
    if x == "bad":
        raise InfeasibleError(f"x={x} infeasible")
    return x * y


def _never(**parameters):
    raise AssertionError(f"re-evaluated {parameters}")


def _slow_square(x):
    # Slow enough that the first chunk lands well before the last.
    time.sleep(0.1)
    return x * x


@pytest.fixture(params=["serial", "pool", "queue"])
def make_executor(request, tmp_path):
    """Factory of fresh executors of one kind, closed at teardown."""
    made = []

    def make():
        if request.param == "serial":
            executor = SerialExecutor()
        elif request.param == "pool":
            executor = LocalPoolExecutor(workers=2, chunk_size=1)
        else:
            executor = WorkQueueExecutor(
                tmp_path / f"queue-{len(made)}", workers=2
            )
        made.append(executor)
        return executor

    yield make
    for executor in made:
        executor.close()


class _Token:
    cancelled = False
    reason = "test"


class TestFailureQuarantine:
    def test_skip_errors_quarantines_not_drops(self, make_executor):
        sweep = Sweep(axes={"x": [1, "bad", 3]})
        result = sweep.run(_eval, skip_errors=True, executor=make_executor())
        assert [p.result for p in result.points] == [1, 3]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, FailedPoint)
        assert failure.parameters == {"x": "bad"}
        assert "InfeasibleError" in failure.error

    def test_without_skip_errors_still_raises(self):
        sweep = Sweep(axes={"x": [1, "bad"]})
        with pytest.raises(InfeasibleError):
            sweep.run(_eval)

    def test_parallel_failures_quarantined(self):
        sweep = Sweep(axes={"x": [1, "bad", 3, 4]})
        result = sweep.run(
            _eval,
            skip_errors=True,
            executor=LocalPoolExecutor(workers=2, chunk_size=1),
        )
        assert [p.result for p in result.points] == [1, 3, 4]
        assert len(result.failures) == 1
        assert result.failures[0].parameters == {"x": "bad"}


class TestJournal:
    def test_journal_written_and_resumed(self, tmp_path, make_executor):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [1, 2, 3], "y": [10, 20]})
        first = sweep.run(_eval, journal=path, executor=make_executor())
        assert [p.result for p in first.points] == [10, 20, 20, 40, 30, 60]
        assert len(SweepJournal(path, sweep.signature()).load()) == 6
        resumed = sweep.run(_never, journal=path, executor=make_executor())
        # Every point came from the journal; nothing re-evaluated.
        assert [p.result for p in resumed.points] == [
            p.result for p in first.points
        ]
        assert [p.parameters for p in resumed.points] == [
            p.parameters for p in first.points
        ]

    def test_interrupted_run_resumes_from_checkpoint(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [0, 1, 2, 3, 4]})
        calls: list = []

        def crashy(x):
            calls.append(x)
            if x == 2:
                raise RuntimeError("simulated crash")
            return x * x

        with pytest.raises(RuntimeError):
            sweep.run(crashy, journal=path)
        assert calls == [0, 1, 2]

        def fixed(x):
            calls.append(x)
            return x * x

        result = sweep.run(fixed, journal=path)
        # Only the unjournaled points (2, 3, 4) were evaluated.
        assert calls == [0, 1, 2, 2, 3, 4]
        assert [p.result for p in result.points] == [0, 1, 4, 9, 16]

    def test_failures_journaled_too(self, tmp_path, make_executor):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [1, "bad", 3]})
        sweep.run(
            _eval, skip_errors=True, journal=path, executor=make_executor()
        )
        resumed = sweep.run(
            _never, skip_errors=True, journal=path, executor=make_executor()
        )
        assert [p.result for p in resumed.points] == [1, 3]
        assert len(resumed.failures) == 1
        assert resumed.failures[0].parameters == {"x": "bad"}

    def test_journal_in_the_original_format_resumes(self, tmp_path):
        # The on-disk format existing journals use: a header line, then
        # one `index` line per point.
        path = tmp_path / "sweep.jsonl"
        path.write_text(
            '{"signature": "145fe53520192b6a"}\n'
            '{"index": 0, "ok": true, "value": "gARLCi4="}\n'
            '{"index": 1, "ok": false, "error": '
            '"InfeasibleError(\'x=bad infeasible\')"}\n'
            '{"index": 2, "ok": true, "value": "gARLHi4="}\n',
            encoding="utf-8",
        )
        sweep = Sweep(axes={"x": [1, "bad", 3]})
        resumed = sweep.run(_never, skip_errors=True, journal=path)
        assert [p.result for p in resumed.points] == [10, 30]
        assert resumed.failures == [
            FailedPoint(
                parameters={"x": "bad"},
                error="InfeasibleError('x=bad infeasible')",
            )
        ]

    def test_axes_change_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        Sweep(axes={"x": [1, 2]}).run(_eval, journal=path)
        with pytest.raises(ConfigurationError):
            Sweep(axes={"x": [1, 2, 3]}).run(_eval, journal=path)

    def test_torn_tail_line_ignored(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [1, 2, 3]})
        sweep.run(_eval, journal=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 99, "ok": true, "val')  # torn write
        journal = SweepJournal(path, sweep.signature())
        outcomes = journal.load()
        assert set(outcomes) == {0, 1, 2}

    def test_journal_is_line_oriented_json(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [1, 2]})
        sweep.run(_eval, journal=path)
        lines = path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["signature"] == sweep.signature()
        assert len(lines) == 3

    def test_parallel_run_with_journal_matches_serial(self, tmp_path):
        sweep = Sweep(axes={"x": [1, 2, 3, 4, 5]})
        serial = sweep.run(_eval)
        parallel = sweep.run(
            _eval,
            executor=LocalPoolExecutor(workers=2, chunk_size=1),
            journal=tmp_path / "par.jsonl",
        )
        assert [p.result for p in parallel.points] == [
            p.result for p in serial.points
        ]
        resumed = sweep.run(
            _eval,
            executor=LocalPoolExecutor(workers=2, chunk_size=1),
            journal=tmp_path / "par.jsonl",
        )
        assert [p.result for p in resumed.points] == [
            p.result for p in serial.points
        ]


class TestCancel:
    def test_cancel_keeps_landed_chunks_journaled(
        self, tmp_path, make_executor
    ):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": list(range(8))})
        token = _Token()

        def cancel_after_first_chunk(reporter):
            token.cancelled = True

        progress = ProgressReporter(
            total=sweep.n_points,
            enabled=False,
            callback=cancel_after_first_chunk,
        )
        with pytest.raises(CancelledError):
            sweep.run(
                _slow_square,
                journal=path,
                executor=make_executor(),
                progress=progress,
                cancel=token,
            )
        # The chunks that landed before the cancel are on disk already.
        journaled = SweepJournal(path, sweep.signature()).load()
        assert 0 < len(journaled) < sweep.n_points
        calls: list = []

        def spy(x):
            calls.append(x)
            return x * x

        result = sweep.run(spy, journal=path)
        assert calls == [x for x in range(8) if x not in journaled]
        assert [p.result for p in result.points] == [
            x * x for x in range(8)
        ]


class TestJournalCrashSafety:
    """Regression: ``SweepJournal.close()`` used to let an fsync error
    mask the sweep's own exception and leak the handle; and a journal
    killed before close must still resume from every appended record
    (each append is flushed)."""

    def test_unclosed_journal_resumes_every_appended_record(
        self, tmp_path
    ):
        # Simulate SIGKILL: append without ever calling close().  The
        # per-append flush means a fresh process sees every record.
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [0, 1, 2, 3]})
        journal = SweepJournal(path, sweep.signature())
        from repro.core.parallel import PointOutcome

        journal.append(0, PointOutcome(ok=True, value=0))
        journal.append(1, PointOutcome(ok=False, error="boom"))
        # no close() — the handle dies with the "process"
        calls: list = []

        def spy(x):
            calls.append(x)
            return x * x

        result = sweep.run(spy, skip_errors=True, journal=path)
        assert calls == [2, 3]
        assert [p.result for p in result.points] == [0, 4, 9]
        assert len(result.failures) == 1

    def test_append_failure_raises_not_drops(
        self, tmp_path, monkeypatch, make_executor
    ):
        # A one-off journal I/O error must end the sweep with that
        # error — never a retried pool, a serial fallback or a result
        # that is silently missing the chunk whose record failed.
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [0, 1, 2, 3]})
        append = SweepJournal.append
        failed: list = []

        def append_once_failing(self, index, outcome):
            if index == 1 and not failed:
                failed.append(index)
                raise OSError("journal disk full")
            append(self, index, outcome)

        monkeypatch.setattr(SweepJournal, "append", append_once_failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            with pytest.raises(OSError, match="journal disk full"):
                sweep.run(
                    _slow_square, journal=path, executor=make_executor()
                )
        assert failed == [1]
        journaled = SweepJournal(path, sweep.signature()).load()
        assert 1 not in journaled
        resumed = sweep.run(_slow_square, journal=path)
        assert [p.result for p in resumed.points] == [0, 1, 4, 9]

    def test_close_survives_fsync_failure(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [0, 1]})
        journal = SweepJournal(path, sweep.signature())
        from repro.core.parallel import PointOutcome

        journal.append(0, PointOutcome(ok=True, value=0))

        def exploding_fsync(fd):
            raise OSError("fsync not supported here")

        monkeypatch.setattr("repro.core.sweep.os.fsync", exploding_fsync)
        journal.close()  # must not raise...
        assert journal._handle is None  # ...and must release the handle
        assert journal.load() == {0: PointOutcome(ok=True, value=0)}

    def test_failing_close_does_not_mask_sweep_error(
        self, tmp_path, monkeypatch
    ):
        # A sweep that dies mid-run must surface ITS error even when
        # the journal's final fsync fails on the way out.
        path = tmp_path / "sweep.jsonl"
        sweep = Sweep(axes={"x": [0, 1, 2]})

        def crashy(x):
            if x == 1:
                raise RuntimeError("simulated crash")
            return x

        def exploding_fsync(fd):
            raise OSError("fsync not supported here")

        monkeypatch.setattr("repro.core.sweep.os.fsync", exploding_fsync)
        with pytest.raises(RuntimeError, match="simulated crash"):
            sweep.run(crashy, journal=path)
        # The flushed prefix is intact for the resume.
        journal = SweepJournal(path, sweep.signature())
        assert 0 in journal.load()


class TestSignature:
    def test_stable_and_axis_sensitive(self):
        a = Sweep(axes={"x": [1, 2], "y": [3]})
        b = Sweep(axes={"y": [3], "x": [1, 2]})
        assert a.signature() == b.signature()  # order-insensitive
        c = Sweep(axes={"x": [1, 2], "y": [4]})
        assert a.signature() != c.signature()
