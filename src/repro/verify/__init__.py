"""Differential verification subsystem.

Three pillars (see :mod:`repro.verify.oracle`,
:mod:`repro.verify.invariants`, :mod:`repro.verify.differential`,
:mod:`repro.verify.march` and :mod:`repro.verify.fuzz`):

* **live invariants** — ``SimulationConfig(check_invariants=...)``
  streams every controller command through an independent protocol
  oracle and checks simulator-state conservation laws while the
  simulation runs;
* **differential oracles** — the same workload through the event engine
  vs per-cycle simulation, serial vs parallel sweeps, the batched vs
  scalar evaluator and the fault-sparse vs cell-by-cell march
  (:func:`march_reference`), diffed field by field with
  first-divergence localization;
* **seeded fuzzing** — deterministic generators, registered properties
  and shrinking to minimal repros, driven by
  ``python -m repro.verify fuzz``.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "CommandOracle": "oracle",
    "DifferentialReport": "differential",
    "FieldDiff": "differential",
    "FirstDivergence": "differential",
    "FuzzFailure": "fuzz",
    "FuzzReport": "fuzz",
    "InvariantReport": "invariants",
    "LiveInvariantChecker": "invariants",
    "PROPERTIES": "fuzz",
    "Violation": "oracle",
    "diff_backend": "differential",
    "diff_results": "differential",
    "diff_serial_vs_parallel": "differential",
    "diff_values": "differential",
    "evaluate_case": "fuzz",
    "first_command_divergence": "differential",
    "march_reference": "march",
    "refresh_deadline_slack": "invariants",
    "result_fingerprint": "differential",
    "run_fuzz": "fuzz",
    "shrink_case": "fuzz",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
