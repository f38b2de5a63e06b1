"""The reproduction experiments: one module per paper claim, E1-E11.

The paper has no numbered tables or figures; its evaluation is a set of
quantitative claims in prose (see DESIGN.md Section 3 for the full
index).  Each module here runs one claim end to end on the library and
returns an :class:`~repro.reporting.report.ExperimentReport` with
paper-value-vs-measured rows.  The pytest-benchmark harness in
``benchmarks/`` wraps these, and ``repro.experiments.run_all`` powers
EXPERIMENTS.md.
"""

from repro._exports import lazy_exports

#: Every experiment module in paper order, each exported as itself.
_EXPORTS = {name: name for name in (
    "e01_interface_power",
    "e02_fill_frequency",
    "e03_granularity",
    "e04_feasibility",
    "e05_sustainable_bw",
    "e06_mpeg2",
    "e07_gap_iram",
    "e08_siemens_concept",
    "e09_test_cost",
    "e10_design_space",
    "e11_extension_claims",
)}
_getattr, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__ += ["ALL_EXPERIMENTS", "run_all"]


def __getattr__(name: str):
    if name == "ALL_EXPERIMENTS":  # imports them all, so only on use
        return tuple(map(_getattr, _EXPORTS))
    return _getattr(name)


def run_all():
    """Run every experiment and return the reports in order."""
    return [module.run() for module in __getattr__("ALL_EXPERIMENTS")]
