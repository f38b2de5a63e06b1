"""Memory controller: queues, arbitration, scheduling, page policies.

Implements the system-level problems the paper lists in Section 3:
"optimizing the access scheme to minimize the latency for the memory
clients and thus minimize the necessary FIFO depth", and approaching peak
bandwidth through scheduling and mapping.  The controller issues one DRAM
command per cycle, chosen by a scheduler (FCFS or FR-FCFS) under a page
policy (open / closed / adaptive), with client requests arbitrated out of
per-client FIFOs (round-robin, priority, or TDM).
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Request": "request",
    "RequestState": "request",
    "ClientFifo": "fifo",
    "Arbiter": "arbiter",
    "RoundRobinArbiter": "arbiter",
    "PriorityArbiter": "arbiter",
    "TDMArbiter": "arbiter",
    "PagePolicy": "page_policy",
    "OpenPagePolicy": "page_policy",
    "ClosedPagePolicy": "page_policy",
    "AdaptivePagePolicy": "page_policy",
    "Scheduler": "scheduler",
    "FCFSScheduler": "scheduler",
    "FRFCFSScheduler": "scheduler",
    "MemoryController": "controller",
    "ControllerConfig": "controller",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
