"""Memory clients: who issues requests, at what rate, with what pattern.

A client couples an address pattern with a request rate (in requests per
interface cycle) and a read/write mix.  The simulator polls each client
every cycle; a client with ``rate=0.25`` issues on average one request
every four cycles.  Token-bucket pacing keeps the long-run rate exact and
deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.traffic.patterns import AccessPattern


class _PacingPlan:
    """Tick trajectory of one token-bucket credit level.

    ``trajectory[i]`` is the credit after ``i + 1`` consecutive idle
    ticks (a float64 array, extended in place-sized chunks);
    ``want_ticks`` is the tick count after which the client wants to
    issue (None while the trajectory is still being extended).
    """

    __slots__ = ("trajectory", "want_ticks")

    def __init__(self) -> None:
        self.trajectory: np.ndarray = _EMPTY_TRAJECTORY
        self.want_ticks: int | None = None


_EMPTY_TRAJECTORY = np.empty(0)

#: Token-bucket credit ceiling: a client that has been idle for a long
#: time may bank at most this many requests worth of credit, bounding
#: the burst it can emit when it resumes.  The live invariant checker
#: (:mod:`repro.verify.invariants`) pins ``0 <= credit <= CREDIT_CAP``
#: on every stepped cycle.
CREDIT_CAP = 4.0


class ClientKind(enum.Enum):
    """Coarse client categories used in reports."""

    STREAM = "stream"  # display refresh, disk channel
    BLOCK = "block"  # video macroblock engine
    RANDOM = "random"  # CPU, lookup tables
    CONTROL = "control"  # low-rate housekeeping


@dataclass
class MemoryClient:
    """One memory client.

    Attributes:
        name: Identifier in statistics.
        pattern: Address pattern generator.
        rate: Requests per interface cycle (0, 1].
        read_fraction: Probability a request is a read.
        kind: Category tag.
        priority: Arbitration priority (lower = more urgent) for priority
            arbiters.
        seed: RNG seed for the read/write draw.
        words_per_request: Words transferred per request (request size in
            interface words).
    """

    name: str
    pattern: AccessPattern
    rate: float
    read_fraction: float = 1.0
    kind: ClientKind = ClientKind.STREAM
    priority: int = 0
    seed: int = 0
    words_per_request: int = 1

    _credit: float = field(default=0.0, init=False)
    _addr_iter: object = field(default=None, init=False, repr=False)
    _rng: object = field(default=None, init=False, repr=False)
    _pacing_plans: dict = field(default_factory=dict, init=False, repr=False)
    issued: int = field(default=0, init=False)

    _PACING_CACHE_LIMIT = 1024
    #: Longest trajectory extension computed in Python, not NumPy: one
    #: NumPy call costs as much as ~50 Python adds, while low-rate
    #: clients need extensions of hundreds of ticks.
    _SHORT_PLAN = 32

    def __post_init__(self) -> None:
        if not 0 < self.rate <= 1:
            raise ConfigurationError(
                f"client {self.name}: rate must be in (0, 1], got {self.rate}"
            )
        if not 0 <= self.read_fraction <= 1:
            raise ConfigurationError(
                f"client {self.name}: read fraction must be in [0, 1]"
            )
        if self.words_per_request < 1:
            raise ConfigurationError(
                f"client {self.name}: words_per_request must be >= 1"
            )
        self._addr_iter = self.pattern.addresses()
        self._rng = np.random.default_rng(self.seed)

    def wants_to_issue(self, cycle: int) -> bool:
        """Token-bucket check: does the client issue this cycle?

        Pacing contract (pinned by ``tests/test_sim_fastforward.py``):
        the simulator polls this every cycle the client is *not*
        back-pressured and calls :meth:`tick` when the answer is no.
        While a request of this client is held back by a full FIFO, the
        simulator neither polls nor ticks, so credit accrual freezes —
        the held request already consumed its credit, and a stalled
        client must not bank extra credit it would burst out once the
        back-pressure clears.  The event engine relies on exactly these
        semantics.
        """
        del cycle  # pacing is credit-based, not cycle-pattern-based
        return self._credit + self.rate >= 1.0

    def next_request(self) -> tuple[int, bool]:
        """Consume a credit and produce ``(word_address, is_read)``.

        Call only when :meth:`wants_to_issue` returned True this cycle.
        """
        self._credit += self.rate - 1.0
        self.issued += 1
        address = next(self._addr_iter)
        if self.read_fraction >= 1.0:
            is_read = True
        elif self.read_fraction <= 0.0:
            is_read = False
        else:
            is_read = bool(self._rng.random() < self.read_fraction)
        return address, is_read

    @property
    def credit(self) -> float:
        """Current token-bucket credit (read-only observability hook)."""
        return self._credit

    def tick(self) -> None:
        """Accrue pacing credit for a cycle in which nothing was issued."""
        self._credit = min(self._credit + self.rate, CREDIT_CAP)

    def tick_many(self, cycles: int) -> None:
        """Accrue credit for ``cycles`` consecutive idle cycles at once.

        Bit-identical to calling :meth:`tick` ``cycles`` times — the
        accrual is iterated (not closed-form) so the floating-point
        rounding sequence matches the per-cycle loop exactly, which is
        what lets the event engine reproduce the naive loop's
        issue cycles to the cycle.  Token-bucket states recur after
        every issue, so the tick trajectory for each starting credit is
        memoized and steady-state batches cost O(1).
        """
        if cycles < 0:
            raise ConfigurationError(f"cycles must be >= 0, got {cycles}")
        if cycles == 0:
            return
        plan = self._pacing_plans.get(self._credit)
        if plan is not None and len(plan.trajectory) >= cycles:
            self._credit = plan.trajectory[cycles - 1]
            return
        credit = self._credit
        rate = self.rate
        for _ in range(cycles):
            credit = min(credit + rate, CREDIT_CAP)
        self._credit = credit

    def cycles_until_wants(self, limit: int) -> int:
        """Idle cycles until :meth:`wants_to_issue` turns true.

        Returns the number of :meth:`tick` calls needed before the
        token bucket reaches issue threshold, capped at ``limit`` (0
        means the client wants to issue on the very next poll).  Pure
        lookahead: performs (or replays memoized results of) the same
        float operations :meth:`tick` would, without mutating state.
        """
        if limit < 0:
            raise ConfigurationError(f"limit must be >= 0, got {limit}")
        plan = self._pacing_plan(limit)
        if plan.want_ticks is not None and plan.want_ticks <= limit:
            return plan.want_ticks
        return min(len(plan.trajectory), limit)

    def _pacing_plan(self, limit: int) -> "_PacingPlan":
        """Memoized tick trajectory from the current credit level.

        The trajectory is extended with ``np.add.accumulate``, whose
        loop-carried sequential double adds round exactly like the
        per-cycle ``tick`` loop (the credit stays below the 4.0 cap in
        this region, so the cap never engages), keeping the fast path
        bit-identical while moving the float work out of Python.  Short
        extensions (a busy client is a few ticks from its next request,
        and its credit rarely recurs) run the same adds in Python,
        where NumPy's per-call overhead would dominate.
        """
        plans = self._pacing_plans
        plan = plans.get(self._credit)
        if plan is None:
            if len(plans) >= self._PACING_CACHE_LIMIT:
                plans.clear()  # degenerate non-recurring credit stream
            plan = _PacingPlan()
            plans[self._credit] = plan
        if plan.want_ticks is None and len(plan.trajectory) < limit:
            trajectory = plan.trajectory
            have = len(trajectory)
            credit = trajectory[-1] if have else self._credit
            rate = self.rate
            if credit + rate >= 1.0:
                plan.want_ticks = have
                return plan
            guess = int((1.0 - credit) / rate) + 2
            room = limit - have + 1
            n = guess if guess <= room else room
            if n <= self._SHORT_PLAN:
                extension = []
                for _ in range(n):
                    credit += rate
                    extension.append(credit)
                    if credit + rate >= 1.0:
                        plan.want_ticks = have + len(extension)
                        break
                plan.trajectory = (
                    np.concatenate((trajectory, extension))
                    if have
                    else np.array(extension)
                )
                return plan
            buf = np.empty(n + 1)
            buf[0] = credit
            buf[1:] = rate
            np.add.accumulate(buf, out=buf)
            wants = np.nonzero(buf + rate >= 1.0)[0]
            if wants.size:
                first = int(wants[0])
                plan.trajectory = np.concatenate(
                    (trajectory, buf[1 : first + 1])
                )
                plan.want_ticks = have + first
            else:
                plan.trajectory = np.concatenate((trajectory, buf[1:]))
        return plan

    @property
    def demand_bits_per_cycle(self) -> float:
        """Average payload demand, for offered-load accounting."""
        return self.rate * self.words_per_request
