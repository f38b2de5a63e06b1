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
    issued: int = field(default=0, init=False)
    #: Pacing plan (see :meth:`_pacing_plan`): ``_plan[i]`` is the
    #: credit ``i`` idle ticks after the anchor ``_plan[0]``, up to index
    #: ``_plan_stop`` (-1: no plan); ``_plan_age`` counts ticks since the
    #: anchor.
    _plan: object = field(default=(), init=False, repr=False, compare=False)
    _plan_stop: int = field(default=-1, init=False, repr=False, compare=False)
    _plan_age: int = field(default=0, init=False, repr=False, compare=False)

    #: Longest plan built in Python, not NumPy: one NumPy call costs as
    #: much as ~50 Python adds, while low-rate clients need plans of
    #: hundreds of ticks.
    _SHORT_PLAN = 32
    #: Most ticks one plan covers, so a tiny rate cannot allocate
    #: without bound; a client further from its want point re-plans
    #: once its cursor passes the plan's end.
    _PLAN_LIMIT = 4096

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
        self._plan_age += 1

    def tick_many(self, cycles: int) -> None:
        """Accrue credit for ``cycles`` consecutive idle cycles at once.

        Bit-identical to calling :meth:`tick` ``cycles`` times — the
        accrual is iterated (not closed-form) so the floating-point
        rounding sequence matches the per-cycle loop exactly, which is
        what lets the event engine reproduce the naive loop's issue
        cycles to the cycle.  A span that starts on the current pacing
        plan reads the credit off the plan, in O(1) however long it is;
        where it runs past the end of a plan cut short of the want
        point (by its length cap), it goes on along a new plan anchored
        at that end.  The engine's spans end at or before the want point
        :meth:`cycles_until_wants` reported.  Only ticks past the want
        point, or a span that starts off the plan, are iterated in
        Python.
        """
        if cycles < 0:
            raise ConfigurationError(f"cycles must be >= 0, got {cycles}")
        if cycles == 0:
            return
        age = self._plan_age
        end = age + cycles
        if age <= self._plan_stop and self._plan[age] == self._credit:
            while end > self._plan_stop and self._plan[-1] + self.rate < 1.0:
                end -= self._plan_stop
                self._credit = float(self._plan[-1])
                self._pacing_plan()
            age = min(end, self._plan_stop)
            self._credit = float(self._plan[age])
            cycles = end - age
        credit = self._credit
        rate = self.rate
        for _ in range(cycles):
            credit = min(credit + rate, CREDIT_CAP)
        self._credit = credit
        self._plan_age = end

    def cycles_until_wants(self, limit: int) -> int:
        """Idle cycles until :meth:`wants_to_issue` turns true.

        Returns the number of :meth:`tick` calls needed before the
        token bucket reaches issue threshold, capped at ``limit`` (0
        means the client wants to issue on the very next poll).  Pure
        lookahead: the answer is the distance from the pacing plan's
        cursor to its want point, and the credit is never touched.  A
        stale plan is rebuilt first; past the end of a plan cut short by
        its length cap, the count continues with the same float
        operations :meth:`tick` would perform.
        """
        if limit < 0:
            raise ConfigurationError(f"limit must be >= 0, got {limit}")
        age = self._plan_age
        if age > self._plan_stop or self._plan[age] != self._credit:
            self._pacing_plan()
            age = 0
        ticks = self._plan_stop - age
        credit = self._plan[-1]
        while ticks < limit and credit + self.rate < 1.0:
            span = min(limit - ticks, self._PLAN_LIMIT)
            more = self._trajectory(credit, span)
            ticks += len(more) - 1
            credit = more[-1]
        return ticks if ticks < limit else limit

    def _pacing_plan(self) -> None:
        """Anchor a new pacing plan at the current credit.

        The plan is the credit after each idle tick, from the anchor
        through to the want point (see :meth:`_trajectory`), at most
        :attr:`_PLAN_LIMIT` ticks long.  The event engine builds it when
        it first looks ahead after an issue, so it is anchored at the
        credit that issue left; :meth:`tick` and :meth:`tick_many` then
        advance the cursor ``_plan_age`` along it, and one plan serves
        every lookahead and batched accrual until the next issue.  The
        plan is current while the credit equals ``_plan[_plan_age]``
        (the rest of a trajectory depends only on its current value);
        any other credit change (an issue, a direct write) fails that
        check and the next lookahead re-plans.
        """
        self._plan = self._trajectory(self._credit, self._PLAN_LIMIT)
        self._plan_stop = len(self._plan) - 1
        self._plan_age = 0

    def _trajectory(self, credit: float, ticks: int):
        """Credits after 0, 1, ... idle ticks from ``credit``, ending at
        the first one at which :meth:`wants_to_issue` holds, or after
        ``ticks`` ticks (>= 1), whichever comes first (an element-short
        length estimate can end it earlier, still short of the want
        point).

        Long trajectories are built with ``np.add.accumulate``, whose
        loop-carried sequential double adds round exactly like the
        per-cycle ``tick`` loop (before the want point the credit stays
        below 1.0, so the 4.0 cap never engages), keeping them
        bit-identical while moving the float work out of Python.  Short
        ones (a busy client is a few ticks from its next request) run
        the same adds in Python, where NumPy's per-call overhead would
        dominate.
        """
        rate = self.rate
        if credit + rate >= 1.0:
            return [credit]
        n = min(int((1.0 - credit) / rate) + 2, ticks)
        if n <= self._SHORT_PLAN:
            trajectory = [credit]
            for _ in range(n):
                credit += rate
                trajectory.append(credit)
                if credit + rate >= 1.0:
                    break
            return trajectory
        trajectory = np.empty(n + 1)
        trajectory[0] = credit
        trajectory[1:] = rate
        np.add.accumulate(trajectory, out=trajectory)
        wants = np.nonzero(trajectory + rate >= 1.0)[0]
        if wants.size:
            return trajectory[: int(wants[0]) + 1]
        return trajectory

    @property
    def demand_bits_per_cycle(self) -> float:
        """Average payload demand, for offered-load accounting."""
        return self.rate * self.words_per_request
