"""Core contribution: the embedded-DRAM design-space explorer.

The paper's thesis (Sections 3, 5, 7): parameters designers "have been
forced to take for given, including size, interface width, and
organization, are now available as design parameters", and "it is
incumbent upon edram suppliers to make the trade-offs transparent and to
quantize the design space into a set of understandable if slightly
sub-optimal solutions".

This package is that machinery:

* :mod:`repro.core.requirements` — what the application needs,
* :mod:`repro.core.metrics` — what a candidate solution delivers,
* :mod:`repro.core.evaluator` — analytic + simulation-backed evaluation,
* :mod:`repro.core.batch` — numpy array-lane evaluation of whole grids,
  bit-identical to the scalar evaluator,
* :mod:`repro.core.explorer` — enumerate and filter the configuration
  space (size x width x banks x page length),
* :mod:`repro.core.pareto` — multi-objective frontier extraction,
* :mod:`repro.core.quantizer` — snap the frontier to the building-block
  granularity and name a handful of understandable solutions,
* :mod:`repro.core.tradeoffs` — logic <-> memory die-area trading.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ApplicationRequirements": "requirements",
    "SolutionMetrics": "metrics",
    "Evaluator": "evaluator",
    "DesignSpaceExplorer": "explorer",
    "ExplorationResult": "explorer",
    "pareto_frontier": "pareto",
    "pareto_frontier_mask": "pareto",
    "dominates": "pareto",
    "BatchEvaluation": "batch",
    "batch_fallback_reason": "batch",
    "evaluate_macro_batch": "batch",
    "evaluate_macro_grid": "batch",
    "Quantizer": "quantizer",
    "NamedSolution": "quantizer",
    "LogicMemoryTrade": "tradeoffs",
    "TradePoint": "tradeoffs",
    "MemoryBlock": "partition",
    "MemoryTech": "partition",
    "Partitioner": "partition",
    "PartitionPlan": "partition",
    "TechProfile": "partition",
    "PointOutcome": "parallel",
    "Sweep": "sweep",
    "SweepPoint": "sweep",
    "SweepResult": "sweep",
    "Executor": "executor",
    "LocalPoolExecutor": "executor",
    "SerialExecutor": "executor",
    "WorkQueueExecutor": "executor",
    "ResultStore": "store",
    "point_fingerprint": "store",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
