"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subclasses separate configuration
mistakes (bad user input) from protocol violations detected inside the
cycle-level simulator (bugs or illegal command sequences).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with inconsistent or out-of-range parameters."""


class ProtocolError(ReproError):
    """A DRAM command was issued in a state where it is illegal.

    The cycle-level simulator checks command legality against the bank state
    machine and timing constraints; violations indicate either a controller
    bug or an invalid hand-built command sequence.
    """


class CapacityError(ReproError, ValueError):
    """A request addressed memory beyond the configured capacity."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class VerificationError(SimulationError):
    """A live verification invariant failed during simulation.

    Raised by :class:`~repro.sim.simulator.MemorySystemSimulator` when
    ``SimulationConfig(check_invariants="raise")`` is set and the
    :mod:`repro.verify` checker observes a protocol or simulator-state
    violation.  The message names the first violated check and cycle.
    """


class CancelledError(ReproError):
    """Cooperative cancellation was requested and honored.

    Raised by the sweep/parallel/executor chunk-boundary checks when a
    :class:`~repro.serve.resilience.CancelToken` fires (client cancel
    or a lapsed ``deadline_s``).  Deliberately *not* a subclass of
    :class:`ConfigurationError`: a cancelled run is neither a bad input
    nor a workload failure, so ``skip_errors`` quarantine must not
    swallow it.
    """


class RepairError(ReproError):
    """Redundancy repair allocation failed or was given invalid inputs."""


class InfeasibleError(ReproError):
    """A design-space query has no feasible solution under the constraints."""
