"""Design-for-test: the paper's Section 6 modeled end to end.

"Testing DRAMs is very different from testing logic": rich fault models
(bit-line/word-line failures, cross-talk, retention), long test times
dominated by waiting, redundancy forcing a pre-fuse / fuse / post-fuse
flow, and the economic conclusion that embedded DRAM needs on-chip
parallelism (BIST) to keep test cost sane.

* :mod:`repro.dft.faults` — fault models and a fault-injectable array,
* :mod:`repro.dft.march` — march test algorithms (MATS+, March C-,
  March B) plus retention testing, run against the faulty array,
* :mod:`repro.dft.redundancy` — spare row/column repair allocation
  (must-repair analysis + greedy cover),
* :mod:`repro.dft.bist` — BIST controller model (area vs. parallelism),
* :mod:`repro.dft.test_cost` — test time and tester-economics model,
* :mod:`repro.dft.flow` — the pre-fuse/fuse/post-fuse production flow,
* :mod:`repro.dft.compression` — on-chip MISR response compression
  (off-chip test data vs. aliasing and the lost fail bitmap).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "FaultKind": "faults",
    "Fault": "faults",
    "FaultyArray": "faults",
    "inject_random_faults": "faults",
    "MarchElement": "march",
    "MarchTest": "march",
    "MATS_PLUS": "march",
    "MARCH_C_MINUS": "march",
    "MARCH_B": "march",
    "retention_test_time_s": "march",
    "RepairPlan": "redundancy",
    "allocate_spares": "redundancy",
    "BISTController": "bist",
    "TesterSpec": "test_cost",
    "TestCostModel": "test_cost",
    "MEMORY_TESTER": "test_cost",
    "LOGIC_TESTER": "test_cost",
    "TestFlow": "flow",
    "FlowResult": "flow",
    "SignatureCompressor": "compression",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
