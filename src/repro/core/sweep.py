"""Parameter-sweep utilities for design-space studies.

Served sweep jobs, the sweep benches and the e2e ``sweep_store``
workload share one shape: vary a few organization knobs (banks, page
size, interface width, capacity), run an evaluation per point,
tabulate.  A :class:`Sweep` is a named cartesian product of axes plus
an evaluation function; the result supports filtering, best-point
queries and direct rendering through
:class:`~repro.reporting.tables.Table`.

Every point is evaluated through one
:class:`~repro.core.executor.Executor` — serial by default, or
whatever ``executor=`` names (a local process pool, a work queue) —
which hands each finished chunk back to the sweep to record.  With
``store=``, stored points are served before the executor runs and
every landed chunk is stored, so the sweep's store is the one durable
result store whichever executor runs the points.

Resilience (see docs/RESILIENCE.md):

* with ``skip_errors``, failing points are quarantined as
  :class:`FailedPoint` entries on ``SweepResult.failures`` instead of
  aborting the sweep, on every executor alike;
* ``Sweep.run(..., journal=path)`` appends every evaluated point to a
  JSONL checkpoint journal as its chunk lands; re-running with the
  same journal skips the already-evaluated points and merges old and
  new outcomes back in product order, so an interrupted sweep resumes
  instead of restarting.  The journal header carries a signature of
  the axes, and resuming against a journal written for different axes
  is rejected.

Telemetry (see docs/OBSERVABILITY.md):

* ``Sweep.run(..., ledger=path)`` streams run/span/chunk/quarantine
  events to a :class:`~repro.obs.ledger.RunLedger`; a resumed sweep
  reuses the same ledger file and continues its event-id sequence, so
  ``repro report`` sees one continuous run;
* ``Sweep.run(..., progress=True)`` renders a live rate/ETA/failure
  line on stderr (TTY only; see
  :class:`~repro.obs.progress.ProgressReporter`).

Neither changes a single evaluated value — bit-identity with the
telemetry off is pinned by ``tests/test_obs_ledger.py``.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CancelledError, ConfigurationError
from repro.core.parallel import PointOutcome, check_cancelled
from repro.obs.ledger import coerce_ledger
from repro.obs.progress import ProgressReporter


@dataclass(frozen=True)
class _KwargsTask:
    """Picklable adapter: one parameter dict -> ``evaluate(**params)``."""

    evaluate: object

    def __call__(self, parameters: dict):
        return self.evaluate(**parameters)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a sweep.

    Attributes:
        parameters: Axis name -> value for this point.
        result: Whatever the evaluation function returned.
    """

    parameters: dict
    result: object

    def __getitem__(self, key: str):
        if key not in self.parameters:
            raise ConfigurationError(f"unknown axis {key!r}")
        return self.parameters[key]


@dataclass(frozen=True)
class FailedPoint:
    """One quarantined point of a sweep.

    Attributes:
        parameters: Axis name -> value for this point.
        error: ``repr`` of the captured exception.
    """

    parameters: dict
    error: str


@dataclass
class SweepResult:
    """All evaluated points of one sweep.

    ``points`` holds the successful evaluations in product order;
    ``failures`` the quarantined ones (skipped errors), also in
    product order.  ``len()`` and iteration cover the successes only,
    matching the pre-resilience contract.
    """

    points: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def where(self, **conditions) -> "SweepResult":
        """Points matching all axis=value conditions."""
        matched = [
            point
            for point in self.points
            if all(
                point.parameters.get(axis) == value
                for axis, value in conditions.items()
            )
        ]
        return SweepResult(points=matched)

    def best(self, key) -> SweepPoint:
        """Point minimizing ``key(result)``."""
        if not self.points:
            raise ConfigurationError("sweep produced no points")
        return min(self.points, key=lambda point: key(point.result))

    def series(self, axis: str, metric) -> list:
        """(axis value, metric(result)) pairs, sorted by axis value."""
        pairs = [
            (point[axis], metric(point.result)) for point in self.points
        ]
        return sorted(pairs, key=lambda pair: pair[0])

    def to_table(self, title: str, columns: dict) -> Table:
        """Render the sweep as a table.

        Args:
            title: Table caption.
            columns: Column header -> extractor; an extractor is either
                an axis name (string) or a callable on the result.
        """
        from repro.reporting.tables import Table

        table = Table(title=title, columns=list(columns))
        for point in self.points:
            cells = []
            for extractor in columns.values():
                if isinstance(extractor, str):
                    cells.append(point[extractor])
                else:
                    cells.append(extractor(point.result))
            table.add_row(*cells)
        return table


@dataclass(frozen=True)
class Sweep:
    """A cartesian parameter sweep.

    Attributes:
        axes: Axis name -> list of values.
    """

    axes: dict

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigurationError("sweep needs at least one axis")
        for name, values in self.axes.items():
            if not values:
                raise ConfigurationError(f"axis {name!r} has no values")

    @property
    def n_points(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def combinations(self) -> list:
        """Every axis combination as a parameter dict, in product order."""
        names = list(self.axes)
        return [
            dict(zip(names, values))
            for values in itertools.product(
                *(self.axes[name] for name in names)
            )
        ]

    def signature(self) -> str:
        """Stable digest of the axes, pinning a journal to this sweep."""
        digest = hashlib.sha256()
        for name in sorted(self.axes):
            digest.update(repr((name, list(self.axes[name]))).encode())
        digest.update(str(self.n_points).encode())
        return digest.hexdigest()[:16]

    def point_key(self, parameters: dict, **context) -> str:
        """Content fingerprint of one point for the durable result store.

        Combines the sweep's signature, any JSON-able ``context``
        (workload name, backend, flags — the same inputs
        :meth:`content_key` takes) and the point's parameters, via
        :func:`repro.core.store.point_fingerprint`.  Two points share a
        key exactly when evaluating them must produce the same result,
        which is the contract that lets a
        :class:`~repro.core.store.ResultStore` serve one's result for
        the other — locally or across nodes.
        """
        return _point_key(self.signature(), parameters, context)

    def content_key(self, **context) -> str:
        """Content-addressed identity of this sweep plus its context.

        Unlike :meth:`signature` (a short journal pin over axes alone),
        this is a full sha256 over the *canonical JSON* of the axes —
        in insertion order, because :meth:`combinations` enumerates in
        axis order, so reordered axes are a different result — plus any
        JSON-able ``context`` (workload name, backend, flags).  Two
        sweeps share a key exactly when running them would produce the
        same result document, which is what a shared result cache must
        key on.  Axis values must be JSON-able scalars.
        """
        document = {
            "axes": [
                [name, list(values)] for name, values in self.axes.items()
            ],
            "context": context,
        }
        canonical = json.dumps(
            document, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def run(
        self,
        evaluate,
        skip_errors: bool = False,
        journal: str | Path | None = None,
        ledger=None,
        progress=None,
        executor=None,
        store=None,
        store_context: dict | None = None,
        cancel=None,
    ) -> SweepResult:
        """Evaluate every axis combination.

        Args:
            evaluate: Callable taking the axis values as keyword
                arguments and returning the point's result.
            skip_errors: Quarantine combinations whose evaluation
                raises :class:`~repro.errors.ReproError` as
                :class:`FailedPoint` entries (useful when parts of the
                grid are unconstructible) instead of aborting.
            journal: Checkpoint-journal path.  Completed points are
                appended as they finish; a rerun with the same path
                resumes from the journal, evaluating only the missing
                points.  A journal written for a different sweep (axes
                changed) is rejected with
                :class:`~repro.errors.ConfigurationError`.
            ledger: Run-ledger path or open
                :class:`~repro.obs.ledger.RunLedger`; the sweep streams
                ``run_start``/``chunk``/``quarantine``/``checkpoint``/
                ``run_end`` events there.  Reusing the path of an
                interrupted run continues its event-id sequence.
            progress: ``True`` for a live stderr rate/ETA line
                (auto-disabled off-TTY), or a pre-built
                :class:`~repro.obs.progress.ProgressReporter`.
            executor: The :class:`~repro.core.executor.Executor` to
                evaluate the points through (default: a
                :class:`~repro.core.executor.SerialExecutor`).  A
                :class:`~repro.core.executor.LocalPoolExecutor` fans
                them over a process pool, chunked deterministically and
                merged back in product order, so the result is identical
                to a serial run (``evaluate`` must be picklable and
                side-effect free; otherwise the serial path is used).  A
                :class:`~repro.core.executor.WorkQueueExecutor` spreads
                them over worker processes, on this or other machines.
            store: Durable content-addressed result store — a path or
                open :class:`~repro.core.store.ResultStore`.  Points
                whose :meth:`point_key` is already stored are served
                without evaluation (across runs and across nodes);
                fresh evaluations are stored chunk by chunk as they
                land, whichever executor runs them.
            store_context: Extra JSON-able context folded into each
                point's :meth:`point_key` (workload name, backend,
                flags) so stores shared across workloads never collide.
            cancel: Cooperative cancellation token (any object with a
                boolean ``cancelled`` attribute, e.g.
                :class:`~repro.serve.resilience.CancelToken`).  Checked
                at every chunk boundary; when it fires the
                sweep raises :class:`~repro.errors.CancelledError`
                after journaling the points already completed, so an
                identical rerun against the same journal resumes from
                the prefix.  The run-ledger's ``run_end`` records
                ``status="cancelled"``.
        """
        from repro.core.executor import SerialExecutor
        from repro.core.store import coerce_store

        combos = self.combinations()
        signature = self.signature()
        run_executor = SerialExecutor() if executor is None else executor
        run_store, owns_store = coerce_store(store)
        if store_context and run_store is None:
            raise ConfigurationError(
                "store_context requires store= to be set"
            )
        run_ledger, owns_ledger = coerce_ledger(ledger)
        if progress is True:
            progress = ProgressReporter(total=self.n_points)
        journal_log: SweepJournal | None = None
        completed: dict = {}
        started = time.perf_counter()
        status = "error"
        outcomes: dict = {}
        try:
            if journal is not None:
                journal_log = SweepJournal(journal, signature)
                completed = journal_log.load()
            if run_ledger is not None:
                run_ledger.event(
                    "run_start",
                    workload="sweep",
                    signature=signature,
                    n_points=self.n_points,
                    axes={
                        name: len(values)
                        for name, values in self.axes.items()
                    },
                    skip_errors=skip_errors,
                    executor=run_executor.describe(),
                    store=run_store is not None,
                    journal=None if journal is None else str(journal),
                    journaled_points=len(completed),
                )
            if progress is not None:
                progress.start()
            outcomes = self._evaluate(
                evaluate, combos, completed, skip_errors, run_executor,
                journal_log, run_ledger, progress, cancel,
                run_store, signature, store_context or {},
            )
            status = "ok"
        except CancelledError:
            status = "cancelled"
            raise
        finally:
            # Every resource releases even when another's release (or
            # the sweep itself) raised: a journal close failure must
            # not leak the ledger handle, and vice versa — resume
            # depends on the journal's buffered tail reaching disk.
            try:
                if journal_log is not None:
                    journal_log.close()
            finally:
                try:
                    if progress is not None:
                        progress.finish()
                finally:
                    try:
                        if owns_store and run_store is not None:
                            run_store.close()
                    finally:
                        if run_ledger is not None:
                            n_failed = sum(
                                1 for o in outcomes.values() if not o.ok
                            )
                            run_ledger.event(
                                "run_end",
                                workload="sweep",
                                status=status,
                                n_ok=len(outcomes) - n_failed,
                                n_failed=n_failed,
                                s=round(
                                    time.perf_counter() - started, 6
                                ),
                            )
                            if owns_ledger:
                                run_ledger.close()
        result = SweepResult()
        for index, parameters in enumerate(combos):
            outcome = outcomes.get(index)
            if outcome is None:
                continue
            if outcome.ok:
                result.points.append(
                    SweepPoint(parameters=parameters, result=outcome.value)
                )
            else:
                result.failures.append(
                    FailedPoint(parameters=parameters, error=outcome.error)
                )
        return result

    def _evaluate(
        self, evaluate, combos, completed, skip_errors, executor,
        journal_log, ledger, progress, cancel, store, signature,
        store_context,
    ) -> dict:
        """Evaluate the not-yet-journaled points; return index -> outcome."""
        from repro.errors import ReproError

        outcomes = dict(completed)
        remaining = [
            index for index in range(len(combos)) if index not in outcomes
        ]
        keys: dict | None = None
        served: dict = {}
        if store is not None and remaining:
            from repro.core.store import decode_outcome, encode_outcome

            keys = {
                index: _point_key(signature, combos[index], store_context)
                for index in remaining
            }
            # Store pre-filter: fingerprints already evaluated — by a
            # previous run, another process, or another node — are
            # served without evaluation.
            for index in remaining:
                text = store.get(keys[index])
                outcome = None if text is None else decode_outcome(text)
                if outcome is not None:
                    served[index] = outcome
        if progress is not None and (completed or served):
            # prefill, not update: journal-resumed and store-served
            # points must advance the bar without polluting the
            # measured rate (an all-cached resume would otherwise
            # render a garbage ETA from an instantaneous burst).
            done = [*completed.values(), *served.values()]
            failed = sum(1 for outcome in done if not outcome.ok)
            progress.prefill(done=len(done) - failed, failed=failed)
        check_cancelled(cancel)

        def record(indices, chunk_outcomes) -> None:
            """Persist one finished chunk of points (product indices)."""
            for index, outcome in zip(indices, chunk_outcomes):
                if journal_log is not None:
                    journal_log.append(index, outcome)
                # A served point is already stored; a fresh one is put
                # even over an entry that no longer decodes, healing it.
                if store is not None and index not in served:
                    store.put(keys[index], encode_outcome(outcome))
                if ledger is not None and not outcome.ok:
                    ledger.event(
                        "quarantine",
                        index=index,
                        parameters=combos[index],
                        error=outcome.error,
                    )
            if ledger is not None and journal_log is not None:
                ledger.event("checkpoint", points=len(indices))

        if served:
            if ledger is not None:
                ledger.event("store_hits", points=len(served))
            record(list(served), list(served.values()))
            outcomes.update(served)
            remaining = [index for index in remaining if index not in served]
        if remaining:
            # record only persists: the outcomes come from map's return
            # value, so no point can go missing from the result.
            results = executor.map(
                _KwargsTask(evaluate),
                [combos[index] for index in remaining],
                catch=(ReproError,) if skip_errors else (),
                keys=(
                    None
                    if keys is None
                    else [keys[index] for index in remaining]
                ),
                ledger=ledger,
                progress=progress,
                cancel=cancel,
                on_chunk=lambda positions, chunk_outcomes: record(
                    [remaining[position] for position in positions],
                    chunk_outcomes,
                ),
            )
            outcomes.update(zip(remaining, results))
        return outcomes


def _point_key(signature: str, parameters: dict, context: dict) -> str:
    """:meth:`Sweep.point_key` with the sweep's signature precomputed."""
    from repro.core.store import point_fingerprint

    return point_fingerprint(
        {"signature": signature, "context": context}, parameters
    )


class SweepJournal:
    """Append-only JSONL checkpoint journal for :meth:`Sweep.run`.

    Line 1 is a header carrying the owning sweep's signature; every
    following line is one evaluated point::

        {"signature": "9f2c...", "n_records": null}
        {"index": 0, "ok": true, "value": "<base64 pickle>"}
        {"index": 1, "ok": false, "error": "InfeasibleError(...)"}

    Values are pickled (they are arbitrary evaluation results) and
    base64-wrapped so the journal stays line-oriented UTF-8.  A torn
    final line — the signature of a run killed mid-write — is ignored
    on load, so resume is safe after any interruption.
    """

    def __init__(self, path: str | Path, signature: str) -> None:
        self.path = Path(path)
        self.signature = signature
        self._handle = None

    def load(self) -> dict:
        """Read the journal; return index -> :class:`PointOutcome`.

        Raises:
            ConfigurationError: The journal belongs to a sweep with a
                different signature (the axes changed under it).
        """
        if not self.path.exists():
            return {}
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"sweep journal {self.path} has a corrupt header: {error}"
            ) from error
        if header.get("signature") != self.signature:
            raise ConfigurationError(
                f"sweep journal {self.path} was written for a different "
                "sweep (axes changed?); delete it or pass a fresh path"
            )
        outcomes: dict = {}
        for line in lines[1:]:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail write from an interrupted run
            index = record.get("index")
            if not isinstance(index, int):
                break
            if record.get("ok"):
                try:
                    value = pickle.loads(
                        base64.b64decode(record["value"])
                    )
                except Exception:
                    break  # torn payload: stop trusting the tail
                outcomes[index] = PointOutcome(ok=True, value=value)
            else:
                outcomes[index] = PointOutcome(
                    ok=False, error=record.get("error")
                )
        return outcomes

    def append(self, index: int, outcome: PointOutcome) -> None:
        """Checkpoint one evaluated point (flushed immediately)."""
        handle = self._open()
        if outcome.ok:
            payload = {
                "index": index,
                "ok": True,
                "value": base64.b64encode(
                    pickle.dumps(outcome.value)
                ).decode("ascii"),
            }
        else:
            payload = {"index": index, "ok": False, "error": outcome.error}
        handle.write(json.dumps(payload) + "\n")
        handle.flush()

    def close(self) -> None:
        """Flush, fsync and release the journal handle.

        Runs from ``Sweep.run``'s finally block on *every* exit path —
        success, quarantined failure, or a raised exception mid-sweep —
        so the buffered tail records a resume depends on always reach
        disk.  fsync failures (e.g. pipes in tests) must not mask the
        sweep's own exception, but the handle is released regardless.
        """
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            except (OSError, ValueError):
                pass
            finally:
                self._handle.close()
                self._handle = None

    def _open(self):
        if self._handle is None:
            fresh = (
                not self.path.exists() or self.path.stat().st_size == 0
            )
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh:
                self._handle.write(
                    json.dumps({"signature": self.signature}) + "\n"
                )
                self._handle.flush()
        return self._handle
