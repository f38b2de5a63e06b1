"""Deterministic fault injection and graceful degradation.

Section 6 of the paper quotes fault coverage and redundancy-repair
numbers that the :mod:`repro.dft` layer models only analytically.  This
package closes the loop in both directions:

* :mod:`repro.inject.campaign` runs real march tests
  (:mod:`repro.dft.march`) over seeded fault maps
  (:mod:`repro.dft.faults`) and compares the *measured* detection and
  repair verdicts against the analytical predictions;
* :mod:`repro.inject.plan` + :mod:`repro.inject.runtime` materialize
  the same :class:`~repro.dft.faults.FaultKind` fault models as runtime
  effects inside the cycle-level simulator — data bit errors on read,
  dropped/late refresh, stuck banks, injected FIFO stalls — and give
  the controller graceful-degradation responses: a SEC-DED ECC model
  (:mod:`repro.inject.ecc`) with retry-on-correctable-error, and
  runtime row remap / bank quarantine reusing the
  :mod:`repro.dft.redundancy` spare budget.

Everything is seeded: the same :class:`InjectionConfig` produces the
same fault map, the same runtime event sequence and the same campaign
report.  With injection disabled (``injector=None`` or
``InjectionConfig(enabled=False)``) results are bit-identical to an
uninstrumented run — pinned by :func:`repro.verify.differential.
diff_injection_off` and the benchmark suite.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "CampaignConfig": "campaign",
    "CampaignReport": "campaign",
    "EccOutcome": "ecc",
    "FaultInjector": "plan",
    "FaultMap": "plan",
    "InjectionConfig": "plan",
    "InjectionReport": "plan",
    "ResilientController": "runtime",
    "SECDEDCode": "ecc",
    "analytical_detection": "campaign",
    "build_fault_map": "plan",
    "build_injected_simulator": "runtime",
    "run_campaign": "campaign",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
