"""The memory-system simulator: clients -> controller -> device.

Drives the whole stack cycle by cycle.  Client address streams are
burst-aligned (one request = one burst), pacing is token-bucket per
client, and a warm-up period is excluded from the statistics so steady-
state sustainable bandwidth is measured rather than cold-start behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.dram.device import DRAMDevice
from repro.controller.controller import MemoryController
from repro.controller.request import Request
from repro.traffic.client import MemoryClient
from repro.sim.stats import LatencyStats, SimulationResult


@dataclass(frozen=True)
class SimulationConfig:
    """Run-length and measurement settings.

    Attributes:
        cycles: Measured cycles.
        warmup_cycles: Cycles simulated before measurement starts.
        align_to_burst: Align client addresses down to burst boundaries
            (one request = one full burst; realistic for streaming DMA
            engines and the right granularity for bandwidth accounting).
        check_invariants: Live verification mode (:mod:`repro.verify`).
            ``"off"`` (default) adds no machinery; ``"collect"`` streams
            every issued command through an independent protocol oracle
            and checks simulator-state invariants each stepped cycle,
            gathering violations into ``simulator.invariant_report``;
            ``"raise"`` does the same but raises
            :class:`~repro.errors.VerificationError` at the first
            violation.
        max_cycles: Watchdog cap on *total* simulated cycles (warm-up
            included).  A run hitting the cap stops there and returns a
            truncated-but-valid result (``result.truncated`` set,
            ``truncation_reason == "max_cycles"``); statistics cover
            the cycles actually simulated.  Deterministic: both
            backends truncate at the same cycle.  None (default) means
            no cap.
        max_wall_s: Watchdog wall-clock deadline.  Checked every 512
            stepped cycles (``"cycle"`` backend) or after every stepped
            cycle (``"event"`` backend), never on the final cycle; on
            expiry the run stops and returns a truncated-but-valid
            result with ``truncation_reason == "max_wall_s"``.
            Inherently nondeterministic — use for hang protection in
            sweeps, not for reproducible experiments.  None (default)
            means no deadline.
        cancel: Cooperative cancellation token — any object with a
            boolean ``cancelled`` attribute, typically a
            :class:`~repro.serve.resilience.CancelToken`.  Checked at
            the same watchdog cadence as ``max_wall_s``; when it fires
            the run stops and returns a truncated-but-valid result
            with ``truncation_reason == "cancelled"``.  None (default)
            adds no per-cycle work.
        backend: Execution core.  ``"event"`` (default) is the
            event-driven engine (:mod:`repro.sim.event_engine`), which
            advances directly between state-changing timestamps so
            cost scales with commands issued rather than cycles
            elapsed.  ``"cycle"`` is the naive reference loop that
            steps every cycle.  Results are bit-identical either way;
            configurations the event engine does not support
            (observability attached, live invariant checking,
            controller subclasses, custom schedulers/arbiters) run on
            the reference loop and record why in
            ``simulator.backend_fallback_reason``.
    """

    cycles: int = 20_000
    warmup_cycles: int = 1_000
    align_to_burst: bool = True
    check_invariants: str = "off"
    max_cycles: int | None = None
    max_wall_s: float | None = None
    backend: str = "event"
    cancel: object = field(default=None, compare=False)
    #: Distributed trace context (a
    #: :class:`~repro.obs.tracectx.TraceContext` or its dict form)
    #: forwarded to an attached observability's trace recorder, so the
    #: simulator timeline joins the job's end-to-end trace.  Excluded
    #: from equality/fingerprints (``compare=False``) for the same
    #: reason as ``cancel``: where a run is traced must not change what
    #: it computes.
    trace: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ConfigurationError("cycles must be >= 1")
        if self.warmup_cycles < 0:
            raise ConfigurationError("warmup must be >= 0")
        if self.backend not in ("cycle", "event"):
            raise ConfigurationError(
                f"backend must be 'cycle' or 'event', got {self.backend!r}"
            )
        if self.check_invariants not in ("off", "collect", "raise"):
            raise ConfigurationError(
                "check_invariants must be 'off', 'collect' or 'raise', "
                f"got {self.check_invariants!r}"
            )
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")
        if self.max_wall_s is not None and self.max_wall_s < 0:
            raise ConfigurationError("max_wall_s must be >= 0")


@dataclass
class MemorySystemSimulator:
    """End-to-end cycle simulator.

    Attributes:
        controller: The controller (owning the device and mapping).
        clients: Memory clients generating traffic.
        config: Run settings.
    """

    controller: MemoryController
    clients: list[MemoryClient]
    config: SimulationConfig = SimulationConfig()
    #: Optional :class:`~repro.obs.Observability` receiving command,
    #: retirement, FIFO and refresh events.  None (the default)
    #: costs nothing and results are bit-identical either way.
    obs: object = None

    _next_request_id: int = field(default=0, init=False)
    _pending: dict = field(default_factory=dict, init=False)
    #: Live checker when ``config.check_invariants != "off"``.
    invariant_checker: object = field(default=None, init=False, repr=False)
    #: :class:`~repro.verify.invariants.InvariantReport` after a checked
    #: run; None when checking was off.
    invariant_report: object = field(default=None, init=False)
    #: Backend that actually executed the last :meth:`run` ("cycle" or
    #: "event"); None before the first run.
    backend_used: str | None = field(default=None, init=False)
    #: Why the event backend fell back to the reference loop;
    #: None when no fallback happened.
    backend_fallback_reason: str | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.clients:
            raise ConfigurationError("need at least one client")
        names = [client.name for client in self.clients]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate client names: {names}")
        for client in self.clients:
            self.controller.register_client(client.name)
        if self.obs is not None:
            self.controller.obs = self.obs
            self.obs.bind(self)
            if self.config.trace is not None:
                recorder = getattr(self.obs, "trace", None)
                if recorder is not None:
                    recorder.set_context(self.config.trace)
        if self.config.check_invariants != "off":
            # Imported lazily: repro.verify depends on this module.
            from repro.verify.invariants import LiveInvariantChecker

            self.invariant_checker = LiveInvariantChecker(
                organization=self.device.organization,
                timing=self.device.timing,
            )
            self.controller.command_observer = (
                self.invariant_checker.observe_command
            )

    @property
    def device(self) -> DRAMDevice:
        return self.controller.device

    def _make_request(self, client: MemoryClient, cycle: int) -> Request:
        address, is_read = client.next_request()
        if self.config.align_to_burst:
            burst = self.device.timing.burst_length
            address = (address // burst) * burst
        address %= self.device.organization.total_words
        request = Request(
            request_id=self._next_request_id,
            client=client.name,
            address=address,
            is_read=is_read,
            created_cycle=cycle,
        )
        self._next_request_id += 1
        return request

    def _drive_clients(self, cycle: int) -> None:
        for client in self.clients:
            stalled_request = self._pending.get(client.name)
            if stalled_request is not None:
                if self.controller.offer(stalled_request):
                    del self._pending[client.name]
                continue
            if client.wants_to_issue(cycle):
                request = self._make_request(client, cycle)
                if not self.controller.offer(request):
                    # Hold the request; the client is back-pressured.
                    self._pending[client.name] = request
            else:
                client.tick()

    def run(self) -> SimulationResult:
        """Simulate warm-up plus measured cycles and gather statistics.

        Runs on the event-driven engine (:mod:`repro.sim.event_engine`)
        unless ``config.backend == "cycle"`` or the engine declines the
        configuration; either way the result is bit-identical to the
        naive reference loop.
        """
        self.backend_fallback_reason = None
        if self.config.backend == "event":
            from repro.sim.event_engine import (
                EventEngine,
                event_fallback_reason,
            )

            reason = event_fallback_reason(self)
            if reason is None:
                self.backend_used = "event"
                return EventEngine(self).run()
            self.backend_fallback_reason = reason
        self.backend_used = "cycle"
        return self._run_naive()

    def _budget(self) -> tuple:
        """(hard cycle cap, truncation reason-if-capped)."""
        total = self.config.warmup_cycles + self.config.cycles
        max_cycles = self.config.max_cycles
        if max_cycles is not None and max_cycles < total:
            return max_cycles, "max_cycles"
        return total, None

    def _deadline(self) -> float | None:
        if self.config.max_wall_s is None:
            return None
        return time.perf_counter() + self.config.max_wall_s

    def _run_naive(self) -> SimulationResult:
        """Reference loop: every cycle stepped, no skipping."""
        hard_total, budget_reason = self._budget()
        deadline = self._deadline()
        cancel = self.config.cancel
        checker = self.invariant_checker
        for cycle in range(hard_total):
            self._drive_clients(cycle)
            self.controller.step(cycle)
            if checker is not None:
                checker.on_cycle(cycle, self)
                self._maybe_raise_violations(checker)
            if cycle == self.config.warmup_cycles - 1:
                self._reset_measurement()
            if (
                (deadline is not None or cancel is not None)
                and (cycle & 511) == 511
                and cycle + 1 < hard_total
            ):
                if (
                    deadline is not None
                    and time.perf_counter() > deadline
                ):
                    return self._collect(
                        cycle + 1, truncation=("max_wall_s", cycle + 1)
                    )
                if cancel is not None and cancel.cancelled:
                    return self._collect(
                        cycle + 1, truncation=("cancelled", cycle + 1)
                    )
        if budget_reason is not None:
            return self._collect(
                hard_total, truncation=(budget_reason, hard_total)
            )
        return self._collect(hard_total)

    def _maybe_raise_violations(self, checker) -> None:
        if self.config.check_invariants != "raise" or not checker.violations:
            return
        from repro.errors import VerificationError

        first = checker.violations[0]
        raise VerificationError(
            f"invariant violated at cycle {first.cycle}: "
            f"[{first.check}] {first.detail}"
        )

    def _reset_measurement(self) -> None:
        """Discard warm-up statistics."""
        if self.obs is not None:
            self.obs.on_measurement_reset(self.config.warmup_cycles - 1)
        if self.invariant_checker is not None:
            self.invariant_checker.on_measurement_reset(
                len(self.controller.completed)
            )
        self.controller.completed.clear()
        self.controller.data_beats = 0
        self.controller.commands = {
            kind: 0 for kind in self.controller.commands
        }
        self.controller.refreshes_issued = 0
        for bank in self.device.banks:
            bank.row_hits = 0
            bank.row_misses = 0
            bank.activations = 0
        for fifo in self.controller.fifos.values():
            fifo.stall_cycles = 0
            fifo.high_water_mark = len(fifo)

    def _collect(
        self, total_cycles: int, truncation: tuple | None = None
    ) -> SimulationResult:
        if self.obs is not None:
            self.obs.on_run_end(total_cycles)
        if self.invariant_checker is not None:
            self.invariant_report = self.invariant_checker.report()
        measured = self.config.cycles
        truncation_reason = truncated_at = None
        if truncation is not None:
            truncation_reason, truncated_at = truncation
            warmup = self.config.warmup_cycles
            # Truncated before the measurement reset: statistics cover
            # the whole (short) run; after it: the post-warm-up window.
            measured = (
                truncated_at - warmup
                if truncated_at >= warmup
                else truncated_at
            )
            if self.obs is not None:
                self.obs.on_fault_event(
                    "run_truncated",
                    truncated_at,
                    reason=truncation_reason,
                )
        latency = LatencyStats()
        by_client: dict = {
            client.name: LatencyStats() for client in self.clients
        }
        word_bits = self.device.organization.word_bits
        burst = self.device.timing.burst_length
        data_bits = 0
        for request in self.controller.completed:
            latency.record(request.latency_cycles)
            by_client[request.client].record(request.latency_cycles)
            data_bits += burst * word_bits
        return SimulationResult(
            cycles=measured,
            clock_hz=self.device.timing.clock_hz,
            word_bits=word_bits,
            requests_completed=len(self.controller.completed),
            data_bits_transferred=data_bits,
            peak_bandwidth_bits_per_s=self.device.peak_bandwidth_bits_per_s,
            latency=latency,
            latency_by_client={
                name: stats for name, stats in by_client.items()
            },
            row_hit_rate=self.device.row_hit_rate(),
            fifo_high_water={
                name: fifo.high_water_mark
                for name, fifo in self.controller.fifos.items()
            },
            fifo_stall_cycles={
                name: fifo.stall_cycles
                for name, fifo in self.controller.fifos.items()
            },
            commands={
                kind.value: count
                for kind, count in self.controller.commands.items()
            },
            refreshes=self.controller.refreshes_issued,
            bank_activations=tuple(
                bank.activations for bank in self.device.banks
            ),
            truncated=truncation is not None,
            truncation_reason=truncation_reason,
            truncated_at_cycle=truncated_at,
        )
