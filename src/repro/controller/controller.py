"""The memory controller: ties FIFOs, arbiter, scheduler and device.

Each cycle the controller:

1. accepts up to one request from the client FIFOs (arbiter's choice)
   into its scheduling window,
2. services refresh when due (draining open banks first),
3. issues at most one DRAM command — a column command for a ready
   request, or a precharge/activate preparing the highest-ranked
   request's bank, or a page-policy precharge,
4. retires requests whose data burst completed.

The one-command-per-cycle limit models the single command bus; the
device model enforces all electrical/timing legality underneath, so a
controller bug surfaces as a :class:`~repro.errors.ProtocolError` rather
than silently optimistic numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
from repro.dram.commands import Command, CommandType
from repro.dram.device import DRAMDevice
from repro.dram.organizations import AddressMapping
from repro.dram.refresh import RefreshScheduler
from repro.controller.arbiter import Arbiter, RoundRobinArbiter
from repro.controller.fifo import ClientFifo
from repro.controller.page_policy import PagePolicy, OpenPagePolicy
from repro.controller.request import Request, RequestState
from repro.controller.scheduler import Scheduler, FRFCFSScheduler


@dataclass(frozen=True)
class ControllerConfig:
    """Static controller configuration.

    Attributes:
        window_size: Scheduling window (reorder depth).
        fifo_capacity: Per-client FIFO depth.
        refresh_enabled: Whether refresh is modeled.
        refresh_retention_s: Cell retention period handed to the
            refresh scheduler.  The 64 ms default matches commodity
            SDRAM; verification harnesses shorten it to force many
            refresh deadlines into short simulations.
        record_commands: Keep every issued command in
            ``MemoryController.command_log`` (for replay through
            :class:`~repro.dram.tracecheck.TraceChecker` or offline
            analysis).
    """

    window_size: int = 16
    fifo_capacity: int = 8
    refresh_enabled: bool = True
    refresh_retention_s: float = 64e-3
    record_commands: bool = False

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ConfigurationError("window size must be >= 1")
        if self.fifo_capacity < 1:
            raise ConfigurationError("FIFO capacity must be >= 1")
        if self.refresh_retention_s <= 0:
            raise ConfigurationError("retention must be positive")


@dataclass
class MemoryController:
    """Cycle-driven memory controller.

    Attributes:
        device: The DRAM device/macro being controlled.
        mapping: Linear-address-to-physical mapping.
        scheduler: Request scheduler.
        arbiter: Client arbiter.
        page_policy: Row-buffer management policy.
        config: Static sizes and toggles.
    """

    device: DRAMDevice
    mapping: AddressMapping
    scheduler: Scheduler = field(default_factory=FRFCFSScheduler)
    arbiter: Arbiter = field(default_factory=RoundRobinArbiter)
    page_policy: PagePolicy = field(default_factory=OpenPagePolicy)
    config: ControllerConfig = ControllerConfig()

    fifos: dict[str, ClientFifo] = field(default_factory=dict, init=False)
    _fifo_list: list[ClientFifo] = field(default_factory=list, init=False)
    window: list[Request] = field(default_factory=list, init=False)
    #: The window split by bank, each list in accept order (the event
    #: engine's pick walks banks instead of the whole window).
    _bank_queues: list[list[Request]] = field(default_factory=list, init=False)
    completed: list[Request] = field(default_factory=list, init=False)
    _inflight: list[tuple[int, Request]] = field(default_factory=list, init=False)
    #: The shared data bus serializes bursts, so in-flight end cycles
    #: arrive in ascending order; tracked so retirement can early-exit
    #: (and fall back to a full scan if a subclass ever breaks it).
    _inflight_sorted: bool = field(default=True, init=False)
    _close_wanted: set = field(default_factory=set, init=False)
    _refresh: RefreshScheduler | None = field(default=None, init=False)
    _refresh_draining: bool = field(default=False, init=False)
    refreshes_issued: int = field(default=0, init=False)
    commands: dict = field(default_factory=dict, init=False)
    data_beats: int = field(default=0, init=False)
    command_log: list = field(default_factory=list, init=False)
    #: Optional callable invoked with every command the controller
    #: issues, at issue time.  The live verification layer
    #: (:mod:`repro.verify.invariants`) attaches here to stream the
    #: command sequence through an independent protocol oracle.
    command_observer: object = field(default=None, init=False, repr=False)
    #: Optional :class:`~repro.obs.Observability` receiving command,
    #: retirement, access and FIFO events (read-only; never alters
    #: scheduling).  Installed by the simulator when built with
    #: ``obs=``.
    obs: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mapping.organization != self.device.organization:
            raise ConfigurationError(
                "mapping organization does not match device organization"
            )
        if self.config.refresh_enabled:
            org = self.device.organization
            self._refresh = RefreshScheduler(
                timing=self.device.timing,
                n_rows_total=org.n_rows,
                retention_s=self.config.refresh_retention_s,
                rows_per_command=1,
            )
        self.commands = {kind: 0 for kind in CommandType}
        self._bank_queues = [
            [] for _ in range(self.device.organization.n_banks)
        ]

    @property
    def refresh_scheduler(self) -> RefreshScheduler | None:
        """The refresh scheduler, or None when refresh is disabled."""
        return self._refresh

    # -- client side --------------------------------------------------------

    def register_client(self, name: str) -> ClientFifo:
        """Create (or return) the FIFO for a client."""
        if name not in self.fifos:
            fifo = ClientFifo(client=name, capacity=self.config.fifo_capacity)
            self.fifos[name] = fifo
            self._fifo_list.append(fifo)
        return self.fifos[name]

    def offer(self, request: Request) -> bool:
        """Client offers a request; False means back-pressure (FIFO full)."""
        fifo = self.register_client(request.client)
        if fifo.full:
            fifo.record_stall()
            if self.obs is not None:
                self.obs.on_fifo_stall(request.client, request.created_cycle)
            return False
        fifo.push(request)
        if self.obs is not None:
            self.obs.on_fifo_push(
                request.client, len(fifo), request.created_cycle
            )
        return True

    # -- main loop ----------------------------------------------------------

    def step(self, cycle: int) -> None:
        """Advance the controller by one cycle."""
        self._retire(cycle)
        self._accept(cycle)
        if self._service_refresh(cycle):
            return
        if self._issue_policy_precharge(cycle):
            return
        self._issue_request_command(cycle)

    def _retire(self, cycle: int) -> None:
        inflight = self._inflight
        if not inflight:
            return
        if self._inflight_sorted:
            if inflight[0][0] > cycle:
                return
            retired = 0
            for end_cycle, request in inflight:
                if end_cycle > cycle:
                    break
                self._complete(request, end_cycle)
                retired += 1
            del inflight[:retired]
            return
        still: list[tuple[int, Request]] = []
        for end_cycle, request in inflight:
            if end_cycle <= cycle:
                self._complete(request, end_cycle)
            else:
                still.append((end_cycle, request))
        self._inflight = still

    def _complete(self, request: Request, end_cycle: int) -> None:
        """Finish one request whose data burst has ended (override hook)."""
        request.state = RequestState.COMPLETED
        request.completed_cycle = end_cycle
        self.completed.append(request)
        if self.obs is not None:
            self.obs.on_retire(request)

    def _accept(self, cycle: int) -> None:
        if len(self.window) >= self.config.window_size:
            return
        fifo = self.arbiter.select(self._fifo_list, cycle)
        if fifo is None:
            return
        request = fifo.pop()
        request.state = RequestState.ACCEPTED
        request.accepted_cycle = cycle
        request.decoded = decoded = self.mapping.decode(request.address)
        self.window.append(request)
        self._bank_queues[decoded.bank].append(request)

    # -- refresh ------------------------------------------------------------

    def _service_refresh(self, cycle: int) -> bool:
        """Handle refresh; True when a command slot was consumed."""
        if self._refresh is None:
            return False
        if not self._refresh_draining and self._refresh.due(cycle):
            self._refresh_draining = True
        if not self._refresh_draining:
            return False
        # Drain: precharge open banks one per cycle, then refresh.
        for bank in self.device.banks:
            if bank.open_row(cycle) is not None:
                command = Command(
                    kind=CommandType.PRECHARGE, cycle=cycle, bank=bank.index
                )
                if self.device.can_issue(command):
                    self._issue(command)
                    self._close_wanted.discard(bank.index)
                return True  # slot consumed (or waiting on legality)
        refresh = Command(kind=CommandType.REFRESH, cycle=cycle)
        if self.device.can_issue(refresh):
            self._issue(refresh)
            self._refresh.mark_issued(cycle)
            self.refreshes_issued += 1
            self._refresh_draining = False
        return True

    # -- page policy precharges ----------------------------------------------

    def _issue_policy_precharge(self, cycle: int) -> bool:
        if not self._close_wanted:
            return False
        for bank_index in sorted(self._close_wanted):
            bank = self.device.bank(bank_index)
            if bank.open_row(cycle) is None:
                self._close_wanted.discard(bank_index)
                continue
            command = Command(
                kind=CommandType.PRECHARGE, cycle=cycle, bank=bank_index
            )
            if self.device.can_issue(command):
                self._issue(command)
                self._close_wanted.discard(bank_index)
                return True
        return False

    # -- request commands ------------------------------------------------------

    def _issue_request_command(self, cycle: int) -> None:
        if not self.window:
            return
        for request in self.scheduler.candidates(
            self.window, self.device, cycle
        ):
            command = self._next_command(request, cycle)
            if command is not None and self.device.can_issue(command):
                self._issue_for(request, cycle)
                return

    def _issue_for(self, request: Request, cycle: int) -> None:
        """Issue ``request``'s next command; the device still checks it."""
        command = self._next_command(request, cycle)
        if command is None:
            raise SimulationError(
                f"cycle {cycle}: request {request.request_id} was picked "
                "but has no command to issue"
            )
        end = self._issue(command)
        if command.kind in (CommandType.READ, CommandType.WRITE):
            self._commit_access(request, cycle, end)

    def _next_command(self, request: Request, cycle: int) -> Command | None:
        assert request.decoded is not None
        decoded = request.decoded
        bank = self.device.bank(decoded.bank)
        open_row = bank.open_row(cycle)
        if decoded.bank in self._close_wanted:
            # The page policy committed to precharging this bank
            # (auto-precharge semantics): no new column commands may
            # reuse the dying row; wait for the precharge to land.
            return None
        if open_row == decoded.row:
            kind = CommandType.READ if request.is_read else CommandType.WRITE
            return Command(
                kind=kind,
                cycle=cycle,
                bank=decoded.bank,
                column=decoded.column,
                request_id=request.request_id,
            )
        if open_row is not None:
            # Bank holds another row: only precharge if no younger row-hit
            # request still wants the open row (the scheduler's candidate
            # ordering already preferred hits, so reaching here means the
            # open row has no ready customer).
            if decoded.bank in self._close_wanted:
                return None  # policy precharge will handle it
            return Command(
                kind=CommandType.PRECHARGE, cycle=cycle, bank=decoded.bank
            )
        return Command(
            kind=CommandType.ACTIVATE,
            cycle=cycle,
            bank=decoded.bank,
            row=decoded.row,
            request_id=request.request_id,
        )

    def _commit_access(self, request: Request, cycle: int, end: int) -> None:
        assert request.decoded is not None
        decoded = request.decoded
        bank = self.device.bank(decoded.bank)
        # Row-hit bookkeeping: a request that never needed an ACTIVATE of
        # its own (row already open when it was first considered) counts
        # as a hit; we approximate by whether the request's issued
        # ACTIVATE happened (tracked via was_row_hit set at ACT issue).
        if request.was_row_hit is None:
            request.was_row_hit = True
        bank.record_access_outcome(request.was_row_hit)
        if self.obs is not None:
            self.obs.on_access(decoded.bank, request.was_row_hit)
        request.state = RequestState.ISSUED
        request.issued_cycle = cycle
        if self._inflight and end < self._inflight[-1][0]:
            self._inflight_sorted = False
        self._inflight.append((end, request))
        self.window.remove(request)
        self._bank_queues[decoded.bank].remove(request)
        self.data_beats += self.device.timing.burst_length
        if self.page_policy.close_after_access(
            decoded.bank, decoded.row, self.window
        ):
            self._close_wanted.add(decoded.bank)

    def _issue(self, command: Command) -> int:
        end = self.device.issue(command)
        self.commands[command.kind] += 1
        if self.config.record_commands:
            self.command_log.append(command)
        if self.command_observer is not None:
            self.command_observer(command)
        if self.obs is not None:
            self.obs.on_command(command, end)
        if (
            command.kind is CommandType.ACTIVATE
            and command.request_id is not None
        ):
            for request in self._bank_queues[command.bank]:
                if request.request_id == command.request_id:
                    request.was_row_hit = False
                    break
        return end

    # -- statistics -----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests accepted but not yet completed."""
        return len(self.window) + len(self._inflight)

    def queued_total(self) -> int:
        return sum(len(fifo) for fifo in self.fifos.values())

    def drained(self) -> bool:
        """True when no request is anywhere in the pipeline."""
        return self.outstanding == 0 and self.queued_total() == 0
