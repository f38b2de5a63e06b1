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

A full window accepts nothing, so until the next of the other events
only the clients can act.  Such a *controller-inert* span is not cut
at client events.  The clients are replayed alone instead: the naive
loop's ``MemorySystemSimulator._drive_clients`` runs only at the cycles
where some client issues or lands a held request, in cycle order.
With room in the window, a client event may be accepted, so it ends
the span and is stepped.

Between the cycles it steps or drives, the engine batch-accrues
exactly what the naive loop would have accrued: token-bucket credit for
idle clients (``tick_many`` reads it off the same pacing plan, whose
floats are the naive loop's iterated accrual, bit for bit) and stall
cycles for back-pressured clients.  Cost therefore scales with
commands issued and requests made, not cycles elapsed.

On stepped cycles the clients are driven by the same
``_drive_clients``, which records a held request's refusal directly
while its FIFO stays full (for the stock ``offer`` with no observer, a
refusal does nothing else), the controller's phases run individually,
and the request-command phase is one walk over the controller's
per-bank queues (:meth:`_pick`): it returns the request the
scheduler's candidate scan would issue this cycle or, when none can,
the earliest cycle one could.  The pick issues through
``MemoryController._issue_for``, so the device still checks every
command; the scan stays as the naive loop's reference.  An accepted
request or any issued command invalidates the cached next-command
time; otherwise only a stepped cycle at or past it picks.

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
        hard_total, budget_reason = sim._budget()
        deadline = sim._deadline()
        cancel = sim.config.cancel
        warmup_barrier = sim.config.warmup_cycles - 1
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
                cycle = self._advance_clients(cycle, target)
        if budget_reason is not None:
            return sim._collect(
                hard_total, truncation=(budget_reason, hard_total)
            )
        return sim._collect(hard_total)

    def _advance_clients(self, cycle: int, target: int) -> int:
        """Carry the clients across the controller-inert ``[cycle,
        target)`` and return the next cycle to step.

        The clients act in the span only where one issues or a held
        request lands.  While the window has room, such a cycle may
        accept, so it ends the span and is stepped.  A full window
        accepts nothing until a command issues, so the clients are
        replayed alone: the naive loop's ``_drive_clients`` runs at
        each cycle where one acts, in cycle order, and ``target`` is
        stepped next.  :meth:`_accrue` covers the cycles in between.
        """
        sim = self.sim
        controller = self.controller
        clients = sim.clients
        pending = sim._pending
        fifos = controller.fifos
        replay = len(controller.window) >= controller.config.window_size
        # Each client's next event, as an absolute cycle (``target``:
        # none in the span).  A held request facing a FIFO that an
        # accept this cycle freed after the drive phase ran lands on
        # the very next re-offer; one facing a full FIFO stays frozen,
        # as no accept drains it in the span.  An idle client's want
        # cycle stays put while it ticks.
        due = []
        act = target
        for client in clients:
            name = client.name
            if name in pending:
                when = target if fifos[name].full else cycle
            else:
                when = cycle + client.cycles_until_wants(target - cycle)
            if when < act:
                act = when
            due.append(when)
        while True:
            if act > cycle:
                self._accrue(act - cycle)
            if act >= target or not replay:
                return act
            sim._drive_clients(act)
            cycle = act + 1
            for index, client in enumerate(clients):
                if due[index] == act:
                    due[index] = (
                        target
                        if client.name in pending
                        else cycle + client.cycles_until_wants(target - cycle)
                    )
            act = min(due)

    def _accrue(self, cycles: int) -> None:
        """Account for ``cycles`` cycles in which no client acts."""
        fifos = self.controller.fifos
        pending = self.sim._pending
        for client in self.sim.clients:
            if client.name in pending:
                # The naive loop re-offers the held request every
                # cycle; each refusal is one recorded stall and the
                # client's credit stays frozen.
                fifos[client.name].stall_cycles += cycles
            else:
                client.tick_many(cycles)

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
            return
        if controller._close_wanted:
            before = len(controller._close_wanted)
            if controller._issue_policy_precharge(cycle):
                self._next_cmd_time = None
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

    # -- next-command-time model ----------------------------------------------

    def _pick(self, cycle: int) -> tuple:
        """``(request, cycle)`` the candidate scan issues, else
        ``(None, earliest)`` with the first cycle one could issue.

        Walks the controller's per-bank queues (each in accept order)
        instead of ranking the window.  Per bank it looks at the first
        read and the first write hitting the open row, whose legality
        depends only on that (bank, direction) class, and at the
        oldest request's prepare command (precharge or activate) when
        that request misses.  The oldest ready hit wins, else the
        oldest ready prepare: the FR-FCFS ranking's first legal
        candidate.  Requests are aged by ``accepted_cycle``, which
        strictly increases in accept order (one accept per cycle).
        Legality mirrors ``_next_command`` + ``can_issue`` and is
        monotone in the cycle for fixed state.  FCFS only ever advances
        the head.
        """
        controller = self.controller
        if type(controller.scheduler) is FCFSScheduler:
            # Only the head may advance; it is its bank's oldest request.
            queues = [
                (head.decoded.bank, (head,)) for head in controller.window[:1]
            ]
        else:
            queues = enumerate(controller._bank_queues)
        device = self.device
        banks = device.banks
        close_wanted = controller._close_wanted
        # First cycle a read / write burst could start on the data bus;
        # computed at the first open row.
        read_data = write_data = None
        earliest = _NEVER
        hit = prep = None
        for index, queue in queues:
            if not queue or index in close_wanted:
                continue
            head = queue[0]
            if hit is not None and head.accepted_cycle > hit.accepted_cycle:
                continue  # every request here is younger than the hit
            bank = banks[index]
            open_row = bank._open_row
            if open_row is not None:
                if read_data is None:
                    read_data, write_data = self._data_starts()
                ready = bank._ready_column
                read_when = read_data if read_data > ready else ready
                write_when = write_data if write_data > ready else ready
                want_read = read_when <= cycle or read_when < earliest
                want_write = write_when <= cycle or write_when < earliest
                for request in queue:
                    if not (want_read or want_write):
                        break
                    if request.decoded.row != open_row:
                        continue
                    if request.is_read:
                        if not want_read:
                            continue
                        want_read = False
                        when = read_when
                    else:
                        if not want_write:
                            continue
                        want_write = False
                        when = write_when
                    if when <= cycle:
                        if (
                            hit is None
                            or request.accepted_cycle < hit.accepted_cycle
                        ):
                            hit = request
                    elif when < earliest:
                        earliest = when
                if hit is not None or head.decoded.row == open_row:
                    continue  # no prepare command can win
                when = bank._ready_precharge
            else:
                when = bank._ready_activate
                floor = device._last_activate_cycle + device.timing.t_rrd
                if floor > when:
                    when = floor
            if when <= cycle:
                if prep is None or head.accepted_cycle < prep.accepted_cycle:
                    prep = head
            elif when < earliest:
                earliest = when
        if hit is not None:
            return hit, cycle
        if prep is not None:
            return prep, cycle
        return None, earliest

    def _data_starts(self) -> tuple:
        """First cycles a read and a write burst could start on the
        shared data bus, the turnaround included."""
        device = self.device
        timing = device.timing
        read_data = write_data = device._data_bus_free
        read_data -= timing.t_cas
        write_data -= 1
        last_read = device._last_data_was_read
        if last_read is not None:
            if last_read:
                write_data += timing.t_turnaround
            else:
                read_data += timing.t_turnaround
        return read_data, write_data

    # -- skip analysis --------------------------------------------------------

    def _skip_target(
        self, next_cycle: int, hard_total: int, warmup_barrier: int
    ) -> int:
        """Furthest cycle such that ``[next_cycle, target)`` is
        controller-inert.

        Returns ``next_cycle`` itself when the next cycle must be
        stepped.  A span is controller-inert when: refresh is neither
        draining nor due within it, no committed policy precharge can
        land in it, no queued request's command becomes legal, and it
        holds neither the warm-up reset nor the final cycle (always
        stepped).  The window is either full or, with all FIFOs empty,
        has nothing to accept: the stock arbiters are state-neutral
        then.  The clients may still act in the span;
        :meth:`_advance_clients` stops at their first event while the
        window has room (an issue could be accepted) and replays them
        alone while it is full.  Retirement is deliberately not an
        event: completed bursts retire with their recorded end cycle
        whenever the next step happens, and nothing can observe the
        delay.
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
        return target
