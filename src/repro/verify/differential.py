"""Differential oracles: same workload, two execution paths, zero drift.

The optimizations of the simulator and the sweep machinery all make the
same promise — *indistinguishable from the reference path*.  This module
turns that promise into machinery:

* :func:`diff_results` walks two full statistics structures
  field-by-field (dataclasses, dicts, tuples, latency sample lists) and
  returns every differing leaf with its path;
* :func:`diff_backend` runs one workload through the event engine and
  the naive per-cycle loop and, when anything differs, re-runs both with
  command recording to report the **first divergent command cycle** —
  the cycle where the two executions stopped being the same machine;
* :func:`diff_serial_vs_parallel` compares a process-pool sweep against
  its serial reference, point by point in input order.

Everything returns a :class:`DifferentialReport`; ``report.identical``
is the assertion surface, ``report.describe()`` the failure message.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.sim.stats import LatencyStats, SimulationResult


@dataclass(frozen=True)
class FieldDiff:
    """One differing leaf between two compared structures."""

    path: str
    left: object
    right: object

    def __str__(self) -> str:
        return f"{self.path}: {self.left!r} != {self.right!r}"


@dataclass(frozen=True)
class FirstDivergence:
    """First command where two recorded executions disagree.

    Attributes:
        index: Position in the command logs.
        left: Command in the reference log (None if it ended early).
        right: Command in the compared log (None if it ended early).
    """

    index: int
    left: object
    right: object

    @property
    def cycle(self) -> int | None:
        """Cycle of the first divergent command (the earlier side)."""
        cycles = [
            command.cycle
            for command in (self.left, self.right)
            if command is not None
        ]
        return min(cycles) if cycles else None

    def __str__(self) -> str:
        return (
            f"first divergence at command #{self.index} "
            f"(cycle {self.cycle}): {self.left} != {self.right}"
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential comparison.

    Attributes:
        label: What was compared.
        diffs: Field-level differences (empty = identical).
        first_divergence: Command-level first divergence, when the
            comparison could localize one.
    """

    label: str
    diffs: list = field(default_factory=list)
    first_divergence: FirstDivergence | None = None

    @property
    def identical(self) -> bool:
        return not self.diffs and self.first_divergence is None

    def describe(self, limit: int = 8) -> str:
        if self.identical:
            return f"{self.label}: identical"
        lines = [f"{self.label}: {len(self.diffs)} field diffs"]
        if self.first_divergence is not None:
            lines.append(f"  {self.first_divergence}")
        for diff in self.diffs[:limit]:
            lines.append(f"  {diff}")
        if len(self.diffs) > limit:
            lines.append(f"  ... and {len(self.diffs) - limit} more")
        return "\n".join(lines)


# -- structural diffing ------------------------------------------------------


def diff_values(left, right, path: str = "") -> list:
    """Recursively diff two values; returns a list of :class:`FieldDiff`.

    Dataclasses are compared field-by-field, dicts key-by-key (union of
    keys), sequences index-by-index; :class:`LatencyStats` compares its
    streaming digest, whose order-sensitive rolling checksum catches
    sample reorderings, not just aggregate drift.  Floats are compared
    exactly — the contract under test is bit-identity, not tolerance.
    """
    if isinstance(left, LatencyStats) and isinstance(right, LatencyStats):
        return diff_values(
            left.digest(), right.digest(), f"{path}.digest"
        )
    if dataclasses.is_dataclass(left) and type(left) is type(right):
        diffs: list = []
        for f in dataclasses.fields(left):
            diffs.extend(
                diff_values(
                    getattr(left, f.name),
                    getattr(right, f.name),
                    f"{path}.{f.name}" if path else f.name,
                )
            )
        return diffs
    if isinstance(left, dict) and isinstance(right, dict):
        diffs = []
        for key in sorted(set(left) | set(right), key=str):
            sub = f"{path}[{key!r}]"
            if key not in left:
                diffs.append(FieldDiff(sub, "<missing>", right[key]))
            elif key not in right:
                diffs.append(FieldDiff(sub, left[key], "<missing>"))
            else:
                diffs.extend(diff_values(left[key], right[key], sub))
        return diffs
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        diffs = []
        if len(left) != len(right):
            diffs.append(
                FieldDiff(f"{path}.len", len(left), len(right))
            )
        for index, (a, b) in enumerate(zip(left, right)):
            diffs.extend(diff_values(a, b, f"{path}[{index}]"))
        return diffs
    if left != right:
        return [FieldDiff(path or "<value>", left, right)]
    return []


def diff_results(left: SimulationResult, right: SimulationResult) -> list:
    """Field-by-field diff of two :class:`SimulationResult` structures."""
    return diff_values(left, right, "result")


def result_fingerprint(result: SimulationResult) -> tuple:
    """Canonical hashable digest of everything a result observably holds.

    The single definition shared by the equivalence tests, the fuzz
    harness and ``benchmarks/bench_perf.py`` — one place to extend when
    the result type grows a field.
    """
    return (
        result.requests_completed,
        result.data_bits_transferred,
        tuple(sorted(result.commands.items())),
        result.refreshes,
        result.bank_activations,
        tuple(sorted(result.fifo_high_water.items())),
        tuple(sorted(result.fifo_stall_cycles.items())),
        result.row_hit_rate,
        result.latency.digest(),
        tuple(
            (name, stats.digest())
            for name, stats in sorted(result.latency_by_client.items())
        ),
    )


# -- command-log localization ------------------------------------------------


def first_command_divergence(left_log, right_log) -> FirstDivergence | None:
    """First index where two command logs disagree, or None."""
    for index, (a, b) in enumerate(zip(left_log, right_log)):
        if a != b:
            return FirstDivergence(index=index, left=a, right=b)
    if len(left_log) != len(right_log):
        index = min(len(left_log), len(right_log))
        longer = left_log if len(left_log) > len(right_log) else right_log
        return FirstDivergence(
            index=index,
            left=left_log[index] if longer is left_log else None,
            right=right_log[index] if longer is right_log else None,
        )
    return None


# -- harnesses ---------------------------------------------------------------


def diff_backend(
    factory, label: str = "event backend vs per-cycle"
) -> DifferentialReport:
    """Run one workload through the event engine and the naive loop.

    Args:
        factory: ``factory(backend, record_commands)`` returning a
            **fresh** :class:`MemorySystemSimulator` for each call;
            the reference is ``backend="cycle"``, the naive loop.
        label: Report label.

    Skips gracefully (reports identical) when the event engine fell
    back to the naive loop — there is nothing to diff then; the
    fallback reason is recorded on the simulator.  When results
    differ, both paths re-run with command recording and the report
    localizes the first divergent command cycle.
    """
    reference = factory("cycle", False).run()
    event_sim = factory("event", False)
    optimized = event_sim.run()
    if event_sim.backend_used != "event":
        return DifferentialReport(
            label=f"{label} (fallback: {event_sim.backend_fallback_reason})"
        )
    diffs = diff_results(reference, optimized)
    first = None
    if diffs:
        ref_sim = factory("cycle", True)
        ref_sim.run()
        opt_sim = factory("event", True)
        opt_sim.run()
        first = first_command_divergence(
            ref_sim.controller.command_log, opt_sim.controller.command_log
        )
    return DifferentialReport(
        label=label, diffs=diffs, first_divergence=first
    )


def diff_serial_vs_parallel(
    fn, items, workers: int = 2, chunk_size: int | None = None
) -> DifferentialReport:
    """Compare a process-pool map against the serial reference."""
    from repro.core.executor import LocalPoolExecutor, SerialExecutor
    from repro.errors import ReproError

    items = list(items)
    serial = SerialExecutor().map(fn, items, catch=(ReproError,))
    parallel = LocalPoolExecutor(workers=workers, chunk_size=chunk_size).map(
        fn, items, catch=(ReproError,)
    )
    diffs = diff_values(serial, parallel, "outcomes")
    return DifferentialReport(
        label=f"serial vs parallel({workers} workers)", diffs=diffs
    )
