"""DRAM command-trace validation and analysis.

A verification aid: replay any command trace (hand-written, recorded
from the controller, or produced by third-party tooling) against the
device model's protocol/timing rules and report every violation with
its cycle and cause.  Also derives the trace's utilization figures —
data-bus occupancy, row-hit rate, command mix — so traces can be
compared quantitatively.

This is the memory-vendor side of the paper's Section 7 call for merged
methodologies: "the transistor-oriented memory and high-level based
design methodology must be merged" — a controller team needs an oracle
for command legality that does not require the DRAM team in the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ProtocolError
from repro.dram.commands import Command, CommandType
from repro.dram.device import DRAMDevice
from repro.dram.organizations import Organization
from repro.dram.timing import TimingParameters


@dataclass(frozen=True)
class Violation:
    """One protocol violation found in a trace.

    Attributes:
        index: Position of the offending command in the trace.
        command: The command itself.
        reason: The device model's explanation.
    """

    index: int
    command: Command
    reason: str


@dataclass(frozen=True)
class TraceReport:
    """Outcome of checking one command trace.

    Attributes:
        commands: Commands examined.
        violations: Violations found (empty = clean trace).
        data_beats: Data-bus beats the trace's column commands moved.
        span_cycles: Cycles from first to last command (inclusive).
        command_counts: Count per command type name.
        row_hits: Column commands that reused the already-open row
            without a fresh ACTIVATE in between.
    """

    commands: int
    violations: tuple
    data_beats: int
    span_cycles: int
    command_counts: dict
    row_hits: int

    @property
    def clean(self) -> bool:
        return not self.violations

    @property
    def data_bus_utilization(self) -> float:
        if self.span_cycles <= 0:
            return 0.0
        return min(1.0, self.data_beats / self.span_cycles)

    def summary(self) -> str:
        status = "clean" if self.clean else (
            f"{len(self.violations)} violations"
        )
        return (
            f"{self.commands} commands over {self.span_cycles} cycles: "
            f"{status}, data-bus utilization "
            f"{self.data_bus_utilization:.0%}, {self.row_hits} row hits"
        )


@dataclass
class TraceChecker:
    """Replays command traces against a fresh device model.

    Attributes:
        organization: Device organization to check against.
        timing: Device timing to check against.
        stop_at_first: Stop at the first violation (default: collect
            all, skipping illegal commands so later checking continues
            on the legal prefix's state).
    """

    organization: Organization
    timing: TimingParameters
    stop_at_first: bool = False

    def check(self, trace) -> TraceReport:
        """Validate an iterable of :class:`Command`."""
        device = DRAMDevice(
            organization=self.organization, timing=self.timing,
            name="trace-check",
        )
        violations = []
        counts = {kind.value: 0 for kind in CommandType}
        beats = 0
        row_hits = 0
        open_rows: dict = {}
        first_cycle = None
        last_cycle = 0
        last_issue_cycle = -1
        for index, command in enumerate(trace):
            if command.cycle < last_issue_cycle:
                violations.append(
                    Violation(
                        index=index,
                        command=command,
                        reason=(
                            f"trace not time-ordered: cycle "
                            f"{command.cycle} after {last_issue_cycle}"
                        ),
                    )
                )
                if self.stop_at_first:
                    break
                continue
            if first_cycle is None:
                first_cycle = command.cycle
            last_cycle = max(last_cycle, command.cycle)
            try:
                end = device.issue(command)
            except ProtocolError as error:
                violations.append(
                    Violation(
                        index=index, command=command, reason=str(error)
                    )
                )
                if self.stop_at_first:
                    break
                continue
            last_issue_cycle = command.cycle
            counts[command.kind.value] += 1
            if command.kind in (CommandType.READ, CommandType.WRITE):
                beats += self.timing.burst_length
                last_cycle = max(last_cycle, end)
                if open_rows.get(command.bank) is not None:
                    row_hits += 1
            if command.kind is CommandType.ACTIVATE:
                # The first column command after ACT is a miss-fill, not
                # a hit: clear the hit marker until one column lands.
                open_rows[command.bank] = None
                last_cycle = max(last_cycle, end)
            if command.kind in (CommandType.READ, CommandType.WRITE):
                open_rows[command.bank] = True
            if command.kind in (CommandType.PRECHARGE, CommandType.REFRESH):
                open_rows.pop(command.bank, None)
                last_cycle = max(last_cycle, end)
        span = 0 if first_cycle is None else last_cycle - first_cycle + 1
        return TraceReport(
            commands=sum(counts.values()) + len(violations),
            violations=tuple(violations),
            data_beats=beats,
            span_cycles=span,
            command_counts=counts,
            row_hits=row_hits,
        )


def check_controller_log(controller) -> TraceReport:
    """Replay a controller's recorded command log against a fresh device.

    Convenience wrapper for the round-trip verification loop: run a
    simulation with ``ControllerConfig(record_commands=True)``, then
    confirm the exact command sequence the controller issued is legal
    when replayed from scratch (and compare the report's utilization
    figures with the controller's own statistics).
    """
    return TraceChecker(
        organization=controller.device.organization,
        timing=controller.device.timing,
    ).check(controller.command_log)


def streaming_read_trace(
    organization: Organization,
    timing: TimingParameters,
    n_pages: int = 4,
) -> list:
    """Generate a legal page-streaming read trace (ACT, full-page reads,
    PRE, next page) — a known-good input for the checker and a template
    for hand-built traces."""
    if n_pages < 1:
        raise ConfigurationError("need at least one page")
    commands = []
    cycle = 0
    columns = organization.columns_per_page
    reads_per_page = max(1, columns // timing.burst_length)
    for page in range(n_pages):
        bank = page % organization.n_banks
        row = page // organization.n_banks
        act_cycle = cycle
        commands.append(
            Command(
                kind=CommandType.ACTIVATE, cycle=cycle, bank=bank, row=row
            )
        )
        cycle += timing.t_rcd
        last_read_cycle = cycle
        for read_index in range(reads_per_page):
            last_read_cycle = cycle
            commands.append(
                Command(
                    kind=CommandType.READ,
                    cycle=cycle,
                    bank=bank,
                    column=read_index * timing.burst_length,
                )
            )
            cycle += timing.burst_length
        # Precharge once both tRAS and the last burst's data are done.
        burst_end = last_read_cycle + timing.t_cas + timing.burst_length - 1
        cycle = max(act_cycle + timing.t_ras, burst_end)
        commands.append(
            Command(kind=CommandType.PRECHARGE, cycle=cycle, bank=bank)
        )
        cycle += timing.t_rp
    return commands
