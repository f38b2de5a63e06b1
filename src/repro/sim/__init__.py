"""Cycle-level simulation driver and statistics.

Couples :mod:`repro.traffic` clients to a :mod:`repro.controller`
controller over a :mod:`repro.dram` device and measures what the paper's
Section 4 is about: sustainable bandwidth versus peak, client-observed
latency distributions, row-hit rates, and the FIFO depths the access
scheme implies.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "LatencyStats": "stats",
    "SimulationResult": "stats",
    "MemorySystemSimulator": "simulator",
    "SimulationConfig": "simulator",
    "EventEngine": "event_engine",
    "event_fallback_reason": "event_engine",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
