"""The :class:`Observability` fan-out: one run's events into metrics
and an optional timeline trace (see :mod:`repro.obs`)."""

from __future__ import annotations

from repro.dram.commands import CommandType
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder


class Observability:
    """Metrics + optional tracing for one simulation run.

    Create with :meth:`create`, pass as ``obs=`` to
    :class:`~repro.sim.simulator.MemorySystemSimulator` (or attach to an
    already-built simulator with :meth:`attach`), run, then read
    ``obs.metrics.snapshot()`` and ``obs.trace.to_dict()``.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace
        # Per-bank (row, activate-cycle) while a row is open, for the
        # bank-timeline spans closed at PRECHARGE/REFRESH time.
        self._open_rows: dict = {}

    @classmethod
    def create(
        cls,
        trace: bool = False,
        clock_hz: float | None = None,
        max_events: int = 1_000_000,
    ) -> "Observability":
        recorder = (
            TraceRecorder(clock_hz=clock_hz, max_events=max_events)
            if trace
            else None
        )
        return cls(metrics=MetricsRegistry(), trace=recorder)

    def attach(self, simulator) -> "Observability":
        """Wire this observer into an already-built simulator."""
        simulator.obs = self
        simulator.controller.obs = self
        self.bind(simulator)
        return self

    def bind(self, simulator) -> None:
        """Learn the run's clock and pre-name the timeline tracks."""
        if self.trace is not None and self.trace.clock_hz is None:
            self.trace.set_clock(simulator.device.timing.clock_hz)

    # -- controller events ---------------------------------------------------

    def on_command(self, command, end_cycle: int) -> None:
        """One DRAM command issued (``end_cycle`` = burst/settle end)."""
        kind = command.kind
        self.metrics.counter(f"sim.commands.{kind.value}").inc()
        trace = self.trace
        if trace is None:
            return
        if kind is CommandType.ACTIVATE:
            self._open_rows[command.bank] = (command.row, command.cycle)
            trace.instant(
                "commands", "ACT", command.cycle, bank=command.bank,
                row=command.row,
            )
        elif kind is CommandType.PRECHARGE:
            self._close_row_span(command.bank, command.cycle)
            trace.instant(
                "commands", "PRE", command.cycle, bank=command.bank
            )
        elif kind is CommandType.REFRESH:
            for bank in list(self._open_rows):
                self._close_row_span(bank, command.cycle)
            trace.complete(
                "refresh", "REFRESH", command.cycle, end_cycle
            )
        else:  # READ / WRITE column commands span until burst end
            trace.complete(
                "commands",
                kind.value,
                command.cycle,
                end_cycle,
                bank=command.bank,
                column=command.column,
                request_id=command.request_id,
            )

    def _close_row_span(self, bank: int, cycle: int) -> None:
        opened = self._open_rows.pop(bank, None)
        if opened is None:
            return
        row, activate_cycle = opened
        self.trace.complete(
            f"bank {bank}", f"row {row}", activate_cycle, cycle, row=row
        )

    def on_access(self, bank: int, was_row_hit: bool) -> None:
        name = "sim.row_hits" if was_row_hit else "sim.row_misses"
        self.metrics.counter(name).inc()

    def on_retire(self, request) -> None:
        latency = request.latency_cycles
        self.metrics.histogram("sim.latency_cycles").record(latency)
        self.metrics.histogram(
            f"sim.latency_cycles.{request.client}"
        ).record(latency)
        self.metrics.counter("sim.requests_completed").inc()
        if self.trace is not None:
            self.trace.complete(
                f"client {request.client}",
                f"req {request.request_id}",
                request.created_cycle,
                request.completed_cycle,
                address=request.address,
                read=request.is_read,
                latency_cycles=latency,
            )

    def on_fifo_push(self, client: str, depth: int, cycle: int) -> None:
        self.metrics.histogram(f"fifo.depth.{client}").record(depth)
        if self.trace is not None:
            self.trace.counter(
                f"client {client}", f"fifo {client}", cycle, depth=depth
            )

    def on_fifo_stall(self, client: str, cycle: int) -> None:
        self.metrics.counter(f"fifo.stalls.{client}").inc()
        if self.trace is not None:
            self.trace.instant(f"client {client}", "stall", cycle)

    # -- simulator events ----------------------------------------------------

    def on_measurement_reset(self, cycle: int) -> None:
        self.metrics.counter("sim.measurement_resets").inc()
        if self.trace is not None:
            self.trace.instant("simulator", "measurement-reset", cycle)

    def on_run_truncated(self, cycle: int, reason: str) -> None:
        """The watchdog stopped the run at ``cycle`` (``reason`` is the
        result's ``truncation_reason``)."""
        self.metrics.counter("sim.run_truncated").inc()
        if self.trace is not None:
            self.trace.instant(
                "simulator", "run-truncated", cycle, reason=reason
            )

    def on_run_end(self, total_cycles: int) -> None:
        self.metrics.gauge("sim.total_cycles").set(total_cycles)
        if self.trace is not None:
            for bank in list(self._open_rows):
                self._close_row_span(bank, total_cycles)
            self.metrics.gauge("trace.events").set(len(self.trace.events))
            self.metrics.gauge("trace.dropped_events").set(
                self.trace.dropped_events
            )
