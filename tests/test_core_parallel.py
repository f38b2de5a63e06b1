"""Tests for the in-process executors, the explorer and the pareto
engines."""

import warnings

import pytest

from repro.core import executor as executor_module
from repro.core import explorer as explorer_module
from repro.core.evaluator import Evaluator
from repro.core.executor import LocalPoolExecutor, SerialExecutor
from repro.core.explorer import DesignSpaceExplorer
from repro.core.parallel import ParallelFallbackWarning
from repro.core.pareto import pareto_frontier
from repro.core.requirements import ApplicationRequirements
from repro.core.sweep import Sweep
from repro.dram.edram import EDRAMMacro
from repro.errors import CancelledError, ConfigurationError, InfeasibleError
from repro.obs.ledger import MemoryLedger
from repro.units import MBIT


def requirements(name="app", bandwidth=2e9):
    return ApplicationRequirements(
        name=name,
        capacity_bits=4 * MBIT,
        sustained_bandwidth_bits_per_s=bandwidth,
        locality=0.6,
    )


# Module-level so the process pool can pickle them.
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise InfeasibleError("three is right out")
    return x


def _sleep_20ms(x):
    import time

    time.sleep(0.02)
    return x


#: Items ``_recorded_square`` evaluated in this process, in order.
RECORDED: list = []


def _recorded_square(x):
    RECORDED.append(x)
    return x * x


def _sweep_eval(width, banks):
    macro = EDRAMMacro.build(
        size_bits=4 * MBIT, width=width, banks=banks, page_bits=2048
    )
    return Evaluator().evaluate_macro(macro, requirements()).area_mm2


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        outcomes = SerialExecutor().map(_square, range(10))
        assert [o.value for o in outcomes] == [x * x for x in range(10)]
        assert all(o.ok for o in outcomes)

    def test_empty_items(self):
        assert SerialExecutor().map(_square, []) == []
        assert LocalPoolExecutor(workers=2).map(_square, []) == []

    def test_caught_errors_become_outcomes(self):
        outcomes = SerialExecutor().map(
            _fail_on_three, [1, 2, 3, 4], catch=(InfeasibleError,)
        )
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert "three" in outcomes[2].error
        assert outcomes[2].value is None

    def test_uncaught_errors_raise(self):
        with pytest.raises(InfeasibleError):
            SerialExecutor().map(_fail_on_three, [3])

    def test_process_pool_matches_serial(self):
        executor = LocalPoolExecutor(workers=2, chunk_size=3)
        outcomes = executor.map(_square, range(20))
        assert [o.value for o in outcomes] == [x * x for x in range(20)]

    def test_non_picklable_falls_back_to_serial(self):
        fn = lambda x: x + 1  # noqa: E731 - deliberately unpicklable
        outcomes = LocalPoolExecutor(workers=4).map(fn, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 3, 4]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LocalPoolExecutor(workers=-1)
        with pytest.raises(ConfigurationError):
            LocalPoolExecutor(chunk_size=0)

    def test_resolved_workers_caps_at_items(self):
        # More workers than items: one one-item chunk per item.  Zero
        # workers: one in-process chunk.
        sizes = {}
        for workers in (16, 0):
            ledger = MemoryLedger(run_id=f"workers-{workers}")
            LocalPoolExecutor(workers=workers).map(
                _square, range(3), ledger=ledger
            )
            sizes[workers] = [e["size"] for e in _events(ledger, "chunk")]
        assert sizes == {16: [1, 1, 1], 0: [3]}


class _ExplodingPool:
    """Stand-in executor whose submissions all fail."""

    def __init__(self, max_workers=None):
        pass

    def submit(self, fn, *args):
        raise OSError("spawn blocked by sandbox")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _FirstChunkThenFailPool:
    """Inline pool: the first submitted chunk resolves, the rest fail
    at result time — deterministically models a pool that merged chunk
    0 before dying."""

    def __init__(self, max_workers=None):
        self._submissions = 0

    def submit(self, fn, *args):
        from concurrent.futures import Future

        future = Future()
        if self._submissions == 0:
            future.set_result(fn(*args))
        else:
            future.set_exception(OSError("pool failure"))
        self._submissions += 1
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _events(ledger, kind):
    """The ledger's events of one kind, in emission order."""
    return [event for event in ledger.events if event["kind"] == kind]


class TestParallelFallback:
    """The pool-failure fallback must be loud, counted and correct.

    Regression tests for the silent ``except Exception: pass`` that
    used to discard the root cause of every pool failure.
    """

    def test_fallback_warns_with_root_cause(self, monkeypatch):
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _ExplodingPool
        )
        executor = LocalPoolExecutor(workers=2, chunk_size=2)
        with pytest.warns(ParallelFallbackWarning, match="sandbox"):
            outcomes = executor.map(_square, range(6))
        # The serial re-run still produces complete, ordered results.
        assert [o.value for o in outcomes] == [x * x for x in range(6)]

    def test_fallback_warning_names_the_callers_file(self, monkeypatch):
        # Attributed to the first frame outside repro.core, whether the
        # map is called directly or through Sweep.run.
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _ExplodingPool
        )
        with pytest.warns(ParallelFallbackWarning) as caught:
            Sweep(axes={"x": [1, 2, 3]}).run(
                _square, executor=LocalPoolExecutor(workers=2)
            )
            LocalPoolExecutor(workers=2).map(_square, range(4))
        assert [warning.filename for warning in caught] == [__file__] * 2

    def test_fallback_recorded_on_ledger(self, monkeypatch):
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _ExplodingPool
        )
        ledger = MemoryLedger(run_id="fallback")
        with pytest.warns(ParallelFallbackWarning):
            LocalPoolExecutor(workers=2).map(
                _square, range(4), ledger=ledger
            )
        fallbacks = _events(ledger, "fallback")
        assert len(fallbacks) == 1
        assert "sandbox" in fallbacks[0]["error"]
        assert fallbacks[0]["items"] == 4

    def test_worker_crash_reraises_serially_with_warning(self):
        # An exception outside `catch` escapes the pool; the serial
        # re-run raises it deterministically — after the warning.
        with pytest.warns(ParallelFallbackWarning, match="InfeasibleError"):
            with pytest.raises(InfeasibleError):
                LocalPoolExecutor(workers=2, chunk_size=1).map(
                    _fail_on_three, [1, 2, 3, 4]
                )

    def test_healthy_pool_does_not_warn(self, recwarn):
        outcomes = LocalPoolExecutor(workers=2).map(_square, range(8))
        assert [o.value for o in outcomes] == [x * x for x in range(8)]
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, ParallelFallbackWarning)
        ]

    def test_pool_chunks_recorded_on_ledger(self):
        ledger = MemoryLedger(run_id="pool")
        LocalPoolExecutor(workers=2, chunk_size=5).map(
            _square, range(10), ledger=ledger
        )
        chunks = _events(ledger, "chunk")
        assert [(c["index"], c["size"]) for c in chunks] == [(0, 5), (1, 5)]
        assert _events(ledger, "serial") == []

    def test_serial_reasons_recorded_on_ledger(self):
        single = MemoryLedger(run_id="single")
        LocalPoolExecutor(workers=2).map(_square, [1], ledger=single)
        unpicklable = MemoryLedger(run_id="unpicklable")
        LocalPoolExecutor(workers=2).map(
            lambda x: x,  # noqa: E731 - deliberately unpicklable
            [1, 2],
            ledger=unpicklable,
        )
        assert [
            (e["reason"], e["items"]) for e in _events(single, "serial")
        ] == [("single_worker", 1)]
        assert [
            (e["reason"], e["items"])
            for e in _events(unpicklable, "serial")
        ] == [("non_picklable", 2)]

    def test_explicitly_serial_config_records_no_reason(self):
        # workers 0 or 1 asked for no pool: nothing degraded.
        for workers in (0, 1):
            ledger = MemoryLedger(run_id=f"serial-{workers}")
            LocalPoolExecutor(workers=workers).map(
                _square, range(4), ledger=ledger
            )
            assert _events(ledger, "serial") == []
            assert len(_events(ledger, "chunk")) == 1

    def test_on_chunk_reports_each_chunk_in_order(self):
        reported: list = []
        outcomes = LocalPoolExecutor(workers=2, chunk_size=1).map(
            _square,
            range(4),
            on_chunk=lambda positions, chunk: reported.append(
                (positions, [o.value for o in chunk])
            ),
        )
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert reported == [([0], [0]), ([1], [1]), ([2], [4]), ([3], [9])]

    def test_on_chunk_failure_not_retried(self):
        # The caller's bookkeeping failed, not the pool: an OSError
        # from on_chunk (a journal flush) must surface unchanged, not
        # degrade to the serial fallback.
        def record(positions, chunk):
            if positions == [1]:
                raise OSError("journal disk full")

        ledger = MemoryLedger(run_id="on-chunk-error")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            with pytest.raises(OSError, match="journal disk full"):
                LocalPoolExecutor(workers=2, chunk_size=1).map(
                    _square, range(4), ledger=ledger, on_chunk=record
                )
        assert _events(ledger, "fallback") == []

    def test_failure_after_chunk_zero_reruns_only_unmerged_chunks(
        self, monkeypatch
    ):
        # The pool merged chunk 0 and then failed: the fallback
        # evaluates chunks 1 and 2 only, and every chunk is reported
        # exactly once.
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _FirstChunkThenFailPool
        )
        RECORDED.clear()
        ledger = MemoryLedger(run_id="rerun-unmerged")
        with pytest.warns(
            ParallelFallbackWarning, match="re-running 4 unmerged"
        ):
            outcomes = LocalPoolExecutor(workers=2, chunk_size=2).map(
                _recorded_square, range(6), ledger=ledger
            )
        assert [o.value for o in outcomes] == [x * x for x in range(6)]
        assert RECORDED == [0, 1, 2, 3, 4, 5]
        assert [e["index"] for e in _events(ledger, "chunk")] == [0, 1, 2]
        assert [e["items"] for e in _events(ledger, "fallback")] == [4]

    def test_cancelled_pool_map_raises_without_fallback(self):
        class Fired:
            cancelled = True
            reason = "test"

        ledger = MemoryLedger(run_id="cancelled-pool")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ParallelFallbackWarning)
            with pytest.raises(CancelledError, match="test"):
                LocalPoolExecutor(workers=2, chunk_size=1).map(
                    _square, range(4), ledger=ledger, cancel=Fired()
                )
        assert _events(ledger, "chunk") == []
        assert _events(ledger, "fallback") == []


class TestChunkTimings:
    def test_pool_chunk_events_carry_worker_wall_time(self):
        from repro.reporting.runreport import render_markdown, summarize_ledger

        ledger = MemoryLedger(run_id="chunk-times")
        outcomes = LocalPoolExecutor(workers=2, chunk_size=1).map(
            _sleep_20ms, range(4), ledger=ledger
        )
        assert [o.value for o in outcomes] == [0, 1, 2, 3]
        assert _events(ledger, "serial") == []
        chunks = _events(ledger, "chunk")
        assert sorted(c["index"] for c in chunks) == [0, 1, 2, 3]
        assert all(c["s"] >= 0.02 for c in chunks), chunks
        summary = summarize_ledger(ledger.events)
        assert sorted(c["s"] for c in summary["chunks"]) == sorted(
            c["s"] for c in chunks
        )
        report = render_markdown(summary)
        for chunk in chunks:
            assert f"| {chunk['index']} | 1 | {chunk['s']:.4f} | 0 |" in report

    def test_serial_chunk_events_carry_wall_time(self):
        ledger = MemoryLedger(run_id="serial-chunk-times")
        LocalPoolExecutor(workers=1, chunk_size=2).map(
            _sleep_20ms, range(4), ledger=ledger
        )
        chunks = _events(ledger, "chunk")
        assert [(c["index"], c["size"]) for c in chunks] == [(0, 2), (1, 2)]
        assert all(c["s"] >= 0.04 for c in chunks), chunks

    def test_fallback_rerun_records_no_serial_reason(self, monkeypatch):
        # The loud fallback is its own event; `serial` is only for maps
        # that never started a pool.
        monkeypatch.setattr(
            executor_module, "ProcessPoolExecutor", _ExplodingPool
        )
        ledger = MemoryLedger(run_id="fallback-no-serial")
        with pytest.warns(ParallelFallbackWarning):
            LocalPoolExecutor(workers=2).map(
                _square, range(4), ledger=ledger
            )
        assert len(_events(ledger, "fallback")) == 1
        assert _events(ledger, "serial") == []


class TestChunkAccountingParity:
    """Regression: the serial fallback used to re-report chunks the
    failed pool had already counted, so the ledger showed more chunks
    than existed and progress (and its ETA) ran past 100%.  The
    fallback now runs only the chunks the pool had not merged."""

    def _progress(self, total):
        from repro.obs.progress import ProgressReporter

        return ProgressReporter(
            total=total, enabled=False, callback=lambda reporter: None
        )

    def test_fallback_does_not_double_count_reported_chunks(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            executor_module,
            "ProcessPoolExecutor",
            _FirstChunkThenFailPool,
        )
        ledger = MemoryLedger(run_id="parity")
        progress = self._progress(total=6)
        with pytest.warns(ParallelFallbackWarning):
            outcomes = LocalPoolExecutor(workers=2, chunk_size=2).map(
                _square, range(6), ledger=ledger, progress=progress
            )
        # The results themselves were always correct...
        assert [o.value for o in outcomes] == [x * x for x in range(6)]
        # ...and chunk 0, merged by the pool, is not reported again by
        # the serial fallback.  Exactly one report per chunk:
        chunk_events = [
            event for event in ledger.events if event["kind"] == "chunk"
        ]
        assert sorted(e["index"] for e in chunk_events) == [0, 1, 2]
        # ...and progress counts every point exactly once.
        assert progress.done + progress.failed == 6
        assert progress.failed == 0

    def test_default_config_reports_to_ledger_and_progress(self):
        # The serial executor, every sweep's default, keeps the ledger
        # and the progress line like every other path: one chunk per
        # point.
        ledger = MemoryLedger(run_id="no-config")
        progress = self._progress(total=3)
        outcomes = SerialExecutor().map(
            _square, [1, 2, 3], ledger=ledger, progress=progress
        )
        assert [o.value for o in outcomes] == [1, 4, 9]
        chunks = _events(ledger, "chunk")
        assert [(c["index"], c["size"]) for c in chunks] == [
            (0, 1), (1, 1), (2, 1),
        ]
        assert progress.done == 3
        assert progress.failed == 0


class TestParetoEngines:
    CASES = [
        [],
        [(1.0, 2.0)],
        [(1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (3.0, 3.0)],
        [(1.0, 1.0), (1.0, 1.0), (2.0, 0.5)],  # duplicates kept once
        [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)],  # weak domination
        [(float("nan"), 1.0), (1.0, 1.0)],  # NaN never dominates
    ]

    @pytest.mark.parametrize("vectors", CASES)
    def test_engines_agree(self, vectors):
        items = list(range(len(vectors)))
        key = lambda i: vectors[i]  # noqa: E731
        python = pareto_frontier(items, key, engine="python")
        numpy = pareto_frontier(items, key, engine="numpy")
        auto = pareto_frontier(items, key)
        assert python == numpy == auto

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            pareto_frontier([1], lambda i: (1.0,), engine="rust")

    def test_non_numeric_auto_falls_back(self):
        items = ["b", "a"]
        frontier = pareto_frontier(items, lambda s: (s,))
        assert frontier == ["a"]


class TestSweepParallel:
    def test_parallel_matches_serial(self):
        sweep = Sweep(
            axes={"width": [32, 64, 128], "banks": [2, 4]}
        )
        serial = sweep.run(_sweep_eval, skip_errors=True)
        parallel = sweep.run(
            _sweep_eval,
            skip_errors=True,
            executor=LocalPoolExecutor(workers=2),
        )
        assert [(p.parameters, p.result) for p in serial.points] == [
            (p.parameters, p.result) for p in parallel.points
        ]

    def test_parallel_skip_errors_drops_bad_points(self):
        sweep = Sweep(axes={"width": [64, 100_000]})
        result = sweep.run(
            _sweep_eval_strict,
            skip_errors=True,
            executor=LocalPoolExecutor(workers=2),
        )
        assert [p["width"] for p in result.points] == [64]

    def test_parallel_without_skip_errors_raises(self):
        sweep = Sweep(axes={"width": [64, 100_000]})
        with pytest.raises(ConfigurationError):
            sweep.run(
                _sweep_eval_strict,
                executor=LocalPoolExecutor(workers=2),
            )


def _sweep_eval_strict(width):
    return _sweep_eval(width=width, banks=4)


class TestExplorerEnumerate:
    def test_repeat_explore_returns_an_equal_result(self):
        # An explorer keeps no per-explore state: exploring the same
        # requirements again evaluates afresh and gives the same answer.
        reqs = requirements(bandwidth=4e9)
        explorer = DesignSpaceExplorer()
        first = explorer.explore(reqs)
        second = explorer.explore(reqs)
        assert second.evaluated == first.evaluated
        assert second.frontier == first.frontier

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("parallel", {"workers": 2}),
            ("executor", LocalPoolExecutor(workers=2)),
        ],
        ids=["parallel", "executor"],
    )
    def test_explore_takes_no_fan_out_keyword(self, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            DesignSpaceExplorer().explore(requirements(), **{keyword: value})

    def test_enumerate_builds_each_macro_once_per_process(
        self, monkeypatch
    ):
        # Two fresh explorers (as two served jobs build) share the
        # process-wide memo: each combination is built once, ever.
        attempted, built = [], []

        def counting_macro(**kwargs):
            attempted.append(tuple(sorted(kwargs.items())))
            macro = EDRAMMacro(**kwargs)  # raises if not constructible
            built.append(macro)
            return macro

        monkeypatch.setattr(explorer_module, "EDRAMMacro", counting_macro)
        explorer_module._constructible_macros.cache_clear()
        reqs = requirements()
        first = DesignSpaceExplorer().enumerate(reqs)
        second = DesignSpaceExplorer().enumerate(reqs)
        assert first and second == first
        assert built == first  # one build per constructible combination
        assert all(a is b for a, b in zip(first, second))
        assert len(attempted) == len(set(attempted))
