"""Cost and yield models for embedded DRAM economics.

The paper's advisability rules (Section 2) and testing discussion
(Section 6) are ultimately economic: eDRAM trades higher wafer cost (extra
mask steps), specialized testing, and second-sourcing risk against saved
packages, pins, board space and power.  This package provides the cost side
of those trades: wafer cost and dies-per-wafer, defect-limited yield with
and without redundancy repair, packaging cost as a function of pin count,
and per-unit economics including NRE amortization over product volume
(the embedded-vs-discrete crossover volume E11 pins).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "WaferSpec": "wafer",
    "dies_per_wafer": "wafer",
    "die_cost_before_test": "wafer",
    "YieldModel": "yield_model",
    "poisson_yield": "yield_model",
    "negative_binomial_yield": "yield_model",
    "redundancy_repair_yield": "yield_model",
    "PackageCostModel": "packaging",
    "ChipEconomics": "economics",
    "CostBreakdown": "economics",
    "SystemCostModel": "economics",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
