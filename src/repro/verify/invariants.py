"""Live simulator invariants: the in-flight verification layer.

Enabled through ``SimulationConfig(check_invariants="collect"|"raise")``,
a :class:`LiveInvariantChecker` rides along with a simulation run:

* every command the controller issues is streamed through the
  independent :class:`~repro.verify.oracle.CommandOracle` (protocol and
  timing legality re-derived from the timing parameters, sharing no
  code with the device model);
* every stepped cycle, simulator-state invariants are checked — FIFO
  conservation, request-issue accounting, token-bucket bounds,
  refresh-deadline tracking, and completed-request timeline sanity.

Violations are collected into an :class:`InvariantReport` (or raised as
:class:`~repro.errors.VerificationError` in ``"raise"`` mode).  A clean
report is the machine-checked form of the reference loop's protocol
correctness: every command was legal and every conservation law held on
the way to the result the event engine must reproduce bit for bit.
(Checked runs always step every cycle: the event engine declines them.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.organizations import Organization
from repro.dram.timing import TimingParameters
from repro.traffic.client import CREDIT_CAP
from repro.verify.oracle import CommandOracle, Violation

#: Tolerance for token-bucket float comparisons: credit arithmetic mixes
#: ``credit + rate >= 1.0`` tests with ``credit += rate - 1.0`` updates,
#: whose roundings differ in the last ulp.
_CREDIT_EPS = 1e-9


def refresh_deadline_slack(
    timing: TimingParameters, organization: Organization
) -> int:
    """Worst-case cycles between refresh-due and refresh-issued.

    Once refresh is due the controller stops issuing new request
    commands and drains: each open bank waits out tRAS / write recovery
    and is precharged (one per cycle), then REFRESH waits for every
    bank's ready-again cycle.  The bound below is deliberately generous
    — it flags schedulers that *forget* refresh, not marginal drains.
    """
    per_bank = (
        timing.t_ras
        + timing.t_rp
        + timing.t_wr
        + timing.t_cas
        + timing.burst_length
    )
    return (
        timing.t_rc
        + timing.t_rfc
        + organization.n_banks * per_bank
        + 32
    )


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one live-checked simulation run.

    Attributes:
        violations: All violations found, in detection order.
        commands_checked: Commands streamed through the protocol oracle.
        cycles_checked: Stepped cycles on which state was checked.
    """

    violations: tuple
    commands_checked: int
    cycles_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "clean" if self.clean else (
            f"{len(self.violations)} violations "
            f"(first: {self.violations[0]})"
        )
        return (
            f"{self.commands_checked} commands, "
            f"{self.cycles_checked} cycles checked: {status}"
        )


@dataclass
class LiveInvariantChecker:
    """Checks protocol and state invariants during a simulation run.

    Attributes:
        organization: Device organization under simulation.
        timing: Device timing under simulation.
    """

    organization: Organization
    timing: TimingParameters

    violations: list = field(default_factory=list, init=False)
    oracle: CommandOracle = field(init=False)

    _cycles_checked: int = field(default=0, init=False)
    _completed_checked: int = field(default=0, init=False)
    _refresh_due_since: int | None = field(default=None, init=False)
    _last_refreshes_issued: int = field(default=0, init=False)
    _slack: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.oracle = CommandOracle(
            organization=self.organization,
            timing=self.timing,
            label="live",
        )
        self._slack = refresh_deadline_slack(
            self.timing, self.organization
        )

    # -- hooks called by the simulator --------------------------------------

    def observe_command(self, command) -> None:
        """Controller command observer: protocol-check one command."""
        self.violations.extend(self.oracle.observe(command))

    def on_cycle(self, cycle: int, simulator) -> None:
        """State invariants after one stepped controller cycle."""
        self._cycles_checked += 1
        self._check_fifos(cycle, simulator)
        self._check_clients(cycle, simulator)
        self._check_refresh_deadline(cycle, simulator.controller)
        self._check_completed(cycle, simulator.controller)

    def on_measurement_reset(self, completed_discarded: int) -> None:
        """The simulator is about to clear warm-up statistics."""
        del completed_discarded
        self._completed_checked = 0

    def report(self) -> InvariantReport:
        return InvariantReport(
            violations=tuple(self.violations),
            commands_checked=self.oracle.commands_seen,
            cycles_checked=self._cycles_checked,
        )

    # -- individual state checks --------------------------------------------

    def _state_violation(self, cycle: int, check: str, detail: str) -> None:
        self.violations.append(
            Violation(check=check, cycle=cycle, detail=detail)
        )

    def _check_fifos(self, cycle: int, simulator) -> None:
        for name, fifo in simulator.controller.fifos.items():
            queued = len(fifo)
            if fifo.total_enqueued - fifo.total_dequeued != queued:
                self._state_violation(
                    cycle,
                    "state.fifo_conservation",
                    f"FIFO {name}: enqueued {fifo.total_enqueued} - "
                    f"dequeued {fifo.total_dequeued} != queued {queued}",
                )
            if queued > fifo.capacity:
                self._state_violation(
                    cycle,
                    "state.fifo_overflow",
                    f"FIFO {name}: {queued} queued exceeds capacity "
                    f"{fifo.capacity}",
                )

    def _check_clients(self, cycle: int, simulator) -> None:
        for client in simulator.clients:
            credit = client.credit
            if credit < -_CREDIT_EPS:
                self._state_violation(
                    cycle,
                    "state.token_bucket_negative",
                    f"client {client.name}: credit {credit!r} < 0",
                )
            if credit > CREDIT_CAP + _CREDIT_EPS:
                self._state_violation(
                    cycle,
                    "state.token_bucket_cap",
                    f"client {client.name}: credit {credit!r} exceeds "
                    f"cap {CREDIT_CAP}",
                )
            fifo = simulator.controller.fifos.get(client.name)
            if fifo is None:
                continue
            held = 1 if client.name in simulator._pending else 0
            if client.issued != fifo.total_enqueued + held:
                self._state_violation(
                    cycle,
                    "state.issue_accounting",
                    f"client {client.name}: issued {client.issued} != "
                    f"enqueued {fifo.total_enqueued} + held {held}",
                )

    def _check_refresh_deadline(self, cycle: int, controller) -> None:
        scheduler = controller.refresh_scheduler
        if scheduler is None:
            return
        if controller.refreshes_issued != self._last_refreshes_issued:
            self._last_refreshes_issued = controller.refreshes_issued
            self._refresh_due_since = None
        if not scheduler.due(cycle):
            self._refresh_due_since = None
            return
        if self._refresh_due_since is None:
            self._refresh_due_since = cycle
            return
        overdue = cycle - self._refresh_due_since
        if overdue > self._slack:
            self._state_violation(
                cycle,
                "state.refresh_deadline",
                f"refresh due since {self._refresh_due_since} still "
                f"not issued after {overdue} cycles "
                f"(slack {self._slack})",
            )
            # Re-arm so a stuck scheduler reports once per slack window
            # instead of flooding every subsequent cycle.
            self._refresh_due_since = cycle

    def _check_completed(self, cycle: int, controller) -> None:
        completed = controller.completed
        for request in completed[self._completed_checked :]:
            stamps = (
                request.created_cycle,
                request.accepted_cycle,
                request.issued_cycle,
                request.completed_cycle,
            )
            if any(stamp is None for stamp in stamps) or not (
                stamps[0] <= stamps[1] <= stamps[2] <= stamps[3]
            ):
                self._state_violation(
                    cycle,
                    "state.request_timeline",
                    f"request {request.request_id} has a non-monotonic "
                    f"timeline {stamps}",
                )
            elif request.completed_cycle > cycle:
                self._state_violation(
                    cycle,
                    "state.retire_from_future",
                    f"request {request.request_id} retired at "
                    f"{request.completed_cycle} > current cycle {cycle}",
                )
        self._completed_checked = len(completed)
