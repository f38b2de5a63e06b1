"""Differential verification subsystem.

Three pillars (see :mod:`repro.verify.oracle`,
:mod:`repro.verify.invariants`, :mod:`repro.verify.differential`,
:mod:`repro.verify.march` and :mod:`repro.verify.fuzz`):

* **live invariants** — ``SimulationConfig(check_invariants=...)``
  streams every controller command through an independent protocol
  oracle and checks simulator-state conservation laws while the
  simulation runs;
* **differential oracles** — the same workload through the event engine
  vs per-cycle simulation, serial vs parallel sweeps, memoized vs cold
  evaluators and the fault-sparse vs cell-by-cell march
  (:func:`march_reference`), diffed field by field with
  first-divergence localization;
* **seeded fuzzing** — deterministic generators, registered properties
  and shrinking to minimal repros, driven by
  ``python -m repro.verify fuzz``.
"""

from repro.verify.differential import (
    DifferentialReport,
    FieldDiff,
    FirstDivergence,
    diff_backend,
    diff_memoized_vs_cold,
    diff_results,
    diff_serial_vs_parallel,
    diff_values,
    first_command_divergence,
    result_fingerprint,
)
from repro.verify.fuzz import (
    PROPERTIES,
    FuzzFailure,
    FuzzReport,
    evaluate_case,
    run_fuzz,
    shrink_case,
)
from repro.verify.invariants import (
    InvariantReport,
    LiveInvariantChecker,
    refresh_deadline_slack,
)
from repro.verify.march import march_reference
from repro.verify.oracle import CommandOracle, Violation

__all__ = [
    "CommandOracle",
    "DifferentialReport",
    "FieldDiff",
    "FirstDivergence",
    "FuzzFailure",
    "FuzzReport",
    "InvariantReport",
    "LiveInvariantChecker",
    "PROPERTIES",
    "Violation",
    "diff_backend",
    "diff_memoized_vs_cold",
    "diff_results",
    "diff_serial_vs_parallel",
    "diff_values",
    "evaluate_case",
    "first_command_divergence",
    "march_reference",
    "refresh_deadline_slack",
    "result_fingerprint",
    "run_fuzz",
    "shrink_case",
]
