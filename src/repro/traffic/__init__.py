"""Traffic generation: memory clients and their access patterns.

"In practice several memory clients have to read and write data which
introduces page misses and overhead.  Hence the sustainable bandwidth can
be much lower than the peak bandwidth." (Section 4.)  This package
provides the clients: deterministic and randomized address-pattern
generators and per-client request rates the simulator consumes.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "AccessPattern": "patterns",
    "SequentialPattern": "patterns",
    "StridedPattern": "patterns",
    "RandomPattern": "patterns",
    "BlockPattern": "patterns",
    "MotionCompensationPattern": "patterns",
    "MemoryClient": "client",
    "ClientKind": "client",
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
