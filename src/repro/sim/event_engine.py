"""Event-driven simulator backend: advance between state changes.

The simulator's default backend.  The naive reference loop steps every
cycle; this engine jumps any span of cycles where stepping each of them
would provably change nothing observable, even while the window is full
of requests and clients are back-pressured.  What remains is a
timestamp-ordered walk over the cycles where something *can* happen:

* a client's token bucket reaches issue threshold
  (:meth:`~repro.traffic.client.MemoryClient.cycles_until_wants`, the
  distance from the client's pacing-plan cursor to its want point; the
  plan is built once per issue and kept across idle ticks);
* a queued request's next DRAM command becomes legal (bank ready
  cycles, tRRD, shared-data-bus availability — the same rules the
  device model enforces);
* a committed page-policy precharge becomes legal (tRAS expiry);
* the refresh scheduler's next deadline;
* the warm-up reset and the final cycle (always stepped).

Between those timestamps the engine batch-accrues exactly what the
naive loop would have accrued: token-bucket credit for idle clients
(``tick_many`` reads it off the same pacing plan, whose floats are the
naive loop's iterated accrual, bit for bit), stall cycles for
back-pressured clients, and FIFO occupancy statistics.  Cost therefore
scales with commands issued, not cycles elapsed.

On stepped cycles the clients are driven by the naive loop's own
``MemorySystemSimulator._drive_clients``, which records a held request's
refusal directly while its FIFO stays full (for the stock ``offer`` with
no observer, a refusal does nothing else), the controller's phases run
individually, and the request-command phase is one pass over the window
(:meth:`_pick`):
it returns the request the scheduler's candidate scan would issue this
cycle or, when none can, the earliest cycle one could.  The pick
issues through ``MemoryController._issue_for``, so the device still
checks every command; the scan stays as the naive loop's reference.
An accepted request or any issued command invalidates the cached
next-command time; otherwise only a stepped cycle at or past it picks.

Safety argument, pinned by ``tests/test_sim_event_backend.py`` and the
``diff_backend`` oracle: command legality is monotone in the cycle for
fixed bank/device state, the scheduler's candidate ranking depends on
bank state only through ``_open_row`` (which changes only when commands
issue), and all three stock arbiters are state-neutral on cycles where
no request can be accepted (window full or all FIFOs empty).  Every
skip event is computed conservatively — stepping a cycle where nothing
happens is always exact; only a *late* event could diverge, and the
differential fuzz corpus exists to catch exactly that.

Configurations outside the analyzed envelope (observability attached,
live invariant checking, controller subclasses, unknown scheduler or
arbiter types) transparently fall back to the naive reference loop;
``MemorySystemSimulator.backend_fallback_reason`` records why.
"""

from __future__ import annotations

import time

from repro.controller.arbiter import (
    PriorityArbiter,
    RoundRobinArbiter,
    TDMArbiter,
)
from repro.controller.controller import MemoryController
from repro.controller.scheduler import FCFSScheduler, FRFCFSScheduler
from repro.dram.device import DRAMDevice
from repro.sim.stats import SimulationResult

#: Sentinel "never" timestamp for blocked candidates.
_NEVER = 1 << 62

_SCHEDULERS = (FCFSScheduler, FRFCFSScheduler)
_ARBITERS = (RoundRobinArbiter, PriorityArbiter, TDMArbiter)


def event_fallback_reason(simulator) -> str | None:
    """Why ``simulator`` cannot run on the event engine (None = it can).

    The engine's skip analysis is proven against the stock controller,
    schedulers and arbiters; anything it has not been analyzed for runs
    on the naive reference loop instead of risking silent divergence.
    """
    if simulator.obs is not None:
        return "observability requires per-cycle events"
    if simulator.config.check_invariants != "off":
        return "live invariant checking requires stepped cycles"
    controller = simulator.controller
    if type(controller) is not MemoryController:
        return (
            f"controller subclass {type(controller).__name__} "
            "not analyzed for event skipping"
        )
    if type(simulator.device) is not DRAMDevice:
        return (
            f"device subclass {type(simulator.device).__name__} "
            "not analyzed for event skipping"
        )
    if not isinstance(controller.scheduler, _SCHEDULERS):
        return (
            f"scheduler {type(controller.scheduler).__name__} "
            "has no next-command-time model"
        )
    if not isinstance(controller.arbiter, _ARBITERS):
        return (
            f"arbiter {type(controller.arbiter).__name__} "
            "not proven state-neutral across skips"
        )
    return None


class EventEngine:
    """One event-driven run over a :class:`MemorySystemSimulator`.

    Stateless between runs; construct a fresh engine per ``run()``.
    """

    def __init__(self, simulator) -> None:
        self.sim = simulator
        self.controller = simulator.controller
        self.device = simulator.device
        #: Earliest cycle at which the candidate scan can issue a
        #: command, given current window/bank/bus state; None = stale.
        self._next_cmd_time: int | None = None

    # -- main loop -----------------------------------------------------------

    def run(self) -> SimulationResult:
        sim = self.sim
        controller = self.controller
        hard_total, budget_reason = sim._budget()
        deadline = sim._deadline()
        cancel = sim.config.cancel
        warmup_barrier = sim.config.warmup_cycles - 1
        clients = sim.clients
        pending = sim._pending
        fifos = controller.fifos
        cycle = 0
        while cycle < hard_total:
            self._step(cycle)
            if cycle == warmup_barrier:
                sim._reset_measurement()
            cycle += 1
            if (
                deadline is not None
                and cycle < hard_total
                and time.perf_counter() > deadline
            ):
                return sim._collect(
                    cycle, truncation=("max_wall_s", cycle)
                )
            if (
                cancel is not None
                and cycle < hard_total
                and cancel.cancelled
            ):
                return sim._collect(cycle, truncation=("cancelled", cycle))
            if cycle >= hard_total:
                break
            target = self._skip_target(cycle, hard_total, warmup_barrier)
            if target > cycle:
                skipped = target - cycle
                for client in clients:
                    if client.name in pending:
                        # The naive loop re-offers the held request
                        # every cycle; each refusal is one recorded
                        # stall and the client's credit stays frozen.
                        fifos[client.name].stall_cycles += skipped
                    else:
                        client.tick_many(skipped)
                controller.skip_idle_cycles(skipped)
                cycle = target
        if budget_reason is not None:
            return sim._collect(
                hard_total, truncation=(budget_reason, hard_total)
            )
        return sim._collect(hard_total)

    # -- one stepped cycle ----------------------------------------------------

    def _step(self, cycle: int) -> None:
        """One full simulated cycle, phase-decomposed.

        Identical effects to ``sim._drive_clients(cycle)`` followed by
        ``controller.step(cycle)``, except that the request-command
        phase is the fused :meth:`_pick`, run only when the cached
        next-command time is stale or says a command can issue.
        """
        self.sim._drive_clients(cycle)
        controller = self.controller
        controller._retire(cycle)
        window = controller.window
        accepted = len(window)
        controller._accept(cycle)
        if len(window) != accepted:
            self._next_cmd_time = None  # the newcomer may issue now
        if controller._service_refresh(cycle):
            # A drain precharge or REFRESH may have changed bank state.
            self._next_cmd_time = None
            controller._observe(cycle)
            return
        if controller._close_wanted:
            before = len(controller._close_wanted)
            if controller._issue_policy_precharge(cycle):
                self._next_cmd_time = None
                controller._observe(cycle)
                return
            if len(controller._close_wanted) != before:
                # Stale entries were purged; previously blocked
                # candidates may have become schedulable.
                self._next_cmd_time = None
        if window:
            when = self._next_cmd_time
            if when is None or when <= cycle:
                request, when = self._pick(cycle)
                if request is not None:
                    controller._issue_for(request, cycle)
                    when = None
                self._next_cmd_time = when
        controller._observe(cycle)

    # -- next-command-time model ----------------------------------------------

    def _pick(self, cycle: int) -> tuple:
        """``(request, cycle)`` the candidate scan issues, else
        ``(None, earliest)`` with the first cycle one could issue.

        One pass in FR-FCFS order without materializing the ranking:
        the row hits by age, then each bank's oldest non-hit request by
        age.  Legality mirrors ``_next_command`` + ``can_issue``
        (monotone in the cycle for fixed state) and depends only on a
        request's (bank, direction, hit-or-miss) class, so each hit
        class is evaluated once.  FCFS only ever advances the head.
        """
        controller = self.controller
        window = controller.window
        if type(controller.scheduler) is FCFSScheduler:
            window = window[:1]  # the head is its bank's oldest request
        device = self.device
        banks = device.banks
        timing = device.timing
        close_wanted = controller._close_wanted
        bus_free = device.data_bus_free_cycle
        last_read = device.last_data_was_read
        activate_floor = device.last_activate_cycle + timing.t_rrd
        t_cas = timing.t_cas
        t_turnaround = timing.t_turnaround
        earliest = _NEVER
        prep = None
        seen_banks: set[int] = set()
        seen_hits: set[tuple[int, bool]] = set()
        for request in window:
            decoded = request.decoded
            index = decoded.bank
            oldest = index not in seen_banks
            if oldest:
                seen_banks.add(index)
            if index in close_wanted:
                continue
            bank = banks[index]
            open_row = bank._open_row
            if open_row == decoded.row:
                is_read = request.is_read
                key = (index, is_read)
                if key in seen_hits:
                    continue
                seen_hits.add(key)
                bus = bus_free
                if last_read is not None and last_read != is_read:
                    bus += t_turnaround
                when = bank._ready_column
                data_start = bus - (t_cas if is_read else 1)
                if data_start > when:
                    when = data_start
                if when <= cycle:
                    return request, cycle  # the oldest ready row hit
            elif oldest and prep is None:
                if open_row is not None:
                    when = bank._ready_precharge
                else:
                    when = bank._ready_activate
                    if activate_floor > when:
                        when = activate_floor
                if when <= cycle:
                    prep = request  # wins unless a younger hit is ready
            else:
                continue
            if when < earliest:
                earliest = when
        if prep is not None:
            return prep, cycle
        return None, earliest

    # -- skip analysis --------------------------------------------------------

    def _skip_target(
        self, next_cycle: int, hard_total: int, warmup_barrier: int
    ) -> int:
        """Furthest cycle such that ``[next_cycle, target)`` is inert.

        Returns ``next_cycle`` itself when the next cycle must be
        stepped.  A span is inert when: refresh is neither draining nor
        due within it, no committed policy precharge can land in it, no
        request can be accepted on any of its cycles (window full or
        all FIFOs empty — the stock arbiters are state-neutral then),
        no queued request's command becomes legal, and no idle client's
        token bucket reaches threshold.  Retirement is deliberately not
        an event: completed bursts retire with their recorded end cycle
        whenever the next step happens, and nothing can observe the
        delay (the warm-up reset and final cycle are always stepped).
        """
        controller = self.controller
        if controller._refresh_draining:
            return next_cycle
        target = hard_total - 1
        if next_cycle <= warmup_barrier < target:
            target = warmup_barrier
        refresh = controller._refresh
        if refresh is not None:
            due = refresh.quiescent_until(next_cycle)
            if due < target:
                target = due
            if target <= next_cycle:
                return next_cycle
        device = self.device
        for bank_index in controller._close_wanted:
            bank = device.banks[bank_index]
            if bank._open_row is None:
                return next_cycle  # stale entry: purge by stepping
            ready = bank.earliest_precharge()
            if ready < target:
                target = ready
            if target <= next_cycle:
                return next_cycle
        window = controller.window
        if len(window) < controller.config.window_size:
            for fifo in controller._fifo_list:
                if len(fifo):
                    return next_cycle  # an accept would happen
        if window:
            when = self._next_cmd_time
            if when is None:
                when = self._pick(next_cycle)[1]
                self._next_cmd_time = when
            if when < target:
                target = when
            if target <= next_cycle:
                return next_cycle
        pending = self.sim._pending
        for name in pending:
            # An accept this cycle may have freed space after the
            # drive phase ran; the held request would then land on the
            # very next re-offer.
            if not controller.fifos[name].full:
                return next_cycle
        for client in self.sim.clients:
            if client.name in pending:
                continue  # frozen: neither ticks nor polls
            ticks = client.cycles_until_wants(target - next_cycle)
            if ticks == 0:
                return next_cycle
            if next_cycle + ticks < target:
                target = next_cycle + ticks
        return target
