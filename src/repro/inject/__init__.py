"""Fault-injection campaigns: measured march coverage.

Section 6 of the paper quotes fault coverage and redundancy-repair
numbers that the :mod:`repro.dft` layer models only analytically.
:mod:`repro.inject.campaign` closes that loop: it runs real march tests
(:mod:`repro.dft.march`) over seeded fault maps
(:mod:`repro.dft.faults`) and compares the *measured* detection and
repair verdicts against the analytical predictions.

Everything is seeded: the same :class:`CampaignConfig` produces the
same fault maps, the same march reports and the same repair verdicts.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "CampaignConfig": "campaign",
    "CampaignReport": "campaign",
    "analytical_detection": "campaign",
    "run_campaign": "campaign",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
