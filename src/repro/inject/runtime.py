"""Graceful degradation: a controller that survives an injected device.

:class:`ResilientController` extends the baseline
:class:`~repro.controller.controller.MemoryController` with the runtime
responses a production eDRAM controller needs once faults are real:

* **ECC + scrub retry** — every retiring read burst is classified
  through the injector's SEC-DED model; a correctable error triggers a
  bounded re-read (the request re-enters the scheduling window) before
  the corrected data is accepted.
* **Row remap** — a (bank, row) accumulating uncorrectable reads past
  the quarantine threshold is remapped to one of the bank's spare rows
  (the runtime analogue of :func:`repro.dft.redundancy.allocate_spares`);
  the map's faults on that row are cleared, so later reads come back
  clean.
* **Bank quarantine** — when the spare budget is exhausted, or a
  request has been waiting on an unresponsive bank longer than the
  stuck threshold, the whole bank is taken out of service: already
  decoded requests are remapped to a healthy bank and future decodes
  avoid the quarantined one.
* **Refresh fate** — due refreshes can be dropped (schedule advances,
  retention deficit grows) or delayed by the injector; everything else
  about the drain protocol is untouched.

All hooks are no-ops when ``injector`` is None or disabled: the
controller is then command-for-command identical to the baseline, which
is what :func:`repro.verify.differential.diff_injection_off` pins.

As a controller subclass it always runs on the simulator's naive
per-cycle loop (the event engine declines it): fault draws happen on a
per-cycle clock and must not be skipped over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.controller.controller import (
    ControllerConfig,
    MemoryController,
)
from repro.controller.request import Request, RequestState
from repro.dram.device import DRAMDevice
from repro.dram.organizations import AddressMapping, Organization
from repro.dram.timing import PC100_TIMING
from repro.inject.ecc import EccOutcome
from repro.inject.plan import FaultInjector, InjectionConfig
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.traffic.client import ClientKind, MemoryClient
from repro.traffic.patterns import RandomPattern, SequentialPattern


@dataclass
class ResilientController(MemoryController):
    """Memory controller with ECC, retry, remap and quarantine.

    Attributes:
        injector: The fault injector driving runtime effects; None (or
            a disabled injector) makes every hook a no-op.
    """

    injector: FaultInjector | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.quarantined_banks: set = set()
        self._retry_counts: dict = {}
        self._refresh_fate: tuple | None = None

    def _active(self) -> FaultInjector | None:
        injector = self.injector
        if injector is not None and injector.enabled:
            return injector
        return None

    # -- client interface: injected FIFO stalls -------------------------------

    def offer(self, request: Request) -> bool:
        injector = self._active()
        if injector is not None and injector.fifo_stall(
            request.client, request.created_cycle
        ):
            fifo = self.register_client(request.client)
            fifo.record_stall()
            if self.obs is not None:
                self.obs.on_fault_event(
                    "fifo_stall_injected",
                    request.created_cycle,
                    client=request.client,
                )
            return False
        return super().offer(request)

    # -- address path: route around quarantined banks -------------------------

    def _decode(self, request: Request):
        decoded = super()._decode(request)
        if self.quarantined_banks and decoded.bank in self.quarantined_banks:
            decoded = replace(decoded, bank=self._remap_bank(decoded.bank))
        return decoded

    def _remap_bank(self, bank: int) -> int:
        """Deterministic healthy-bank substitute for a quarantined bank."""
        n_banks = self.device.organization.n_banks
        for offset in range(1, n_banks):
            candidate = (bank + offset) % n_banks
            if candidate not in self.quarantined_banks:
                return candidate
        return bank  # every bank quarantined: nothing left to route to

    # -- main loop: stuck-bank detection --------------------------------------

    def step(self, cycle: int) -> None:
        injector = self._active()
        if injector is not None and self.window:
            self._detect_stuck(injector, cycle)
        super().step(cycle)

    def _detect_stuck(self, injector: FaultInjector, cycle: int) -> None:
        # Models a hang detector with ``stuck_request_cycles`` of
        # detection latency.  The age test alone would false-positive
        # under benign starvation (refresh storms, pathological loads),
        # so quarantine only fires for banks that really stopped
        # responding; ordinary congestion merely waits.
        threshold = injector.config.stuck_request_cycles
        for request in self.window:
            if request.accepted_cycle is None or request.decoded is None:
                continue
            bank = request.decoded.bank
            if bank in self.quarantined_banks:
                continue
            if cycle - request.accepted_cycle > threshold and (
                injector.bank_stuck(bank, cycle)
            ):
                self._quarantine_bank(injector, bank, cycle)
                return

    def _quarantine_bank(
        self, injector: FaultInjector, bank: int, cycle: int
    ) -> None:
        injector.quarantine_bank(bank)
        self.quarantined_banks.add(bank)
        target = self._remap_bank(bank)
        remapped = 0
        for request in self.window:
            if request.decoded is not None and request.decoded.bank == bank:
                request.decoded = replace(request.decoded, bank=target)
                remapped += 1
        if remapped:
            injector.count("requests_rerouted", remapped)
        if self.obs is not None:
            self.obs.on_fault_event(
                "bank_quarantined",
                cycle,
                bank=bank,
                target=target,
                requests_rerouted=remapped,
            )

    # -- command path: stuck banks never respond ------------------------------

    def _next_command(self, request: Request, cycle: int):
        injector = self._active()
        if injector is not None:
            assert request.decoded is not None
            if injector.bank_stuck(request.decoded.bank, cycle):
                return None
        return super()._next_command(request, cycle)

    # -- refresh path: drop / delay fates --------------------------------------

    def _service_refresh(self, cycle: int) -> bool:
        injector = self._active()
        if injector is None or self._refresh is None:
            return super()._service_refresh(cycle)
        if not self._refresh_draining and self._refresh.due(cycle):
            if self._refresh_fate is None:
                fate = injector.refresh_action(cycle)
                self._refresh_fate = fate
                if fate[0] == "delay":
                    injector.on_refresh_delayed(cycle)
                    if self.obs is not None:
                        self.obs.on_fault_event(
                            "refresh_delayed", cycle, until=fate[1]
                        )
            action, until = self._refresh_fate
            if action == "drop":
                # The opportunity is skipped outright; the schedule
                # advances as if served, so the deficit is real.
                self._refresh.mark_issued(cycle)
                injector.on_refresh_dropped(cycle)
                if self.obs is not None:
                    self.obs.on_fault_event("refresh_dropped", cycle)
                self._refresh_fate = None
                return False
            if action == "delay" and cycle < until:
                return False
        before = self.refreshes_issued
        consumed = super()._service_refresh(cycle)
        if self.refreshes_issued != before:
            injector.on_refresh_issued(cycle)
            self._refresh_fate = None
        return consumed

    # -- retirement: ECC classify, retry, remap, quarantine --------------------

    def _complete(self, request: Request, end_cycle: int) -> None:
        injector = self._active()
        if (
            injector is None
            or not request.is_read
            or request.decoded is None
        ):
            super()._complete(request, end_cycle)
            return
        decoded = request.decoded
        outcome = injector.classify_read(
            decoded.bank,
            decoded.row,
            decoded.column,
            self.device.timing.burst_length,
        )
        if outcome is EccOutcome.CLEAN:
            self._retry_counts.pop(request.request_id, None)
            super()._complete(request, end_cycle)
            return
        if self.obs is not None:
            self.obs.on_fault_event(
                f"ecc_{outcome.value}",
                end_cycle,
                bank=decoded.bank,
                row=decoded.row,
            )
        if outcome is EccOutcome.CORRECTED:
            retries = self._retry_counts.get(request.request_id, 0)
            if retries < injector.config.read_retry_limit:
                # Scrub re-read: the request re-enters the window and
                # the burst is issued again before data is accepted.
                self._retry_counts[request.request_id] = retries + 1
                injector.count("retries")
                request.state = RequestState.ACCEPTED
                self.window.append(request)
                if self.obs is not None:
                    self.obs.on_fault_event(
                        "read_retry",
                        end_cycle,
                        bank=decoded.bank,
                        row=decoded.row,
                    )
                return
            self._retry_counts.pop(request.request_id, None)
            super()._complete(request, end_cycle)
            return
        # Uncorrectable: complete (the data loss is accounted in the
        # injector counters) and charge the row toward repair.
        self._retry_counts.pop(request.request_id, None)
        tally = injector.record_uncorrectable(decoded.bank, decoded.row)
        if tally >= injector.config.quarantine_threshold:
            if injector.try_remap_row(decoded.bank, decoded.row):
                if self.obs is not None:
                    self.obs.on_fault_event(
                        "row_remapped",
                        end_cycle,
                        bank=decoded.bank,
                        row=decoded.row,
                    )
            else:
                self._quarantine_bank(injector, decoded.bank, end_cycle)
        super()._complete(request, end_cycle)


# -- canonical injected workload ----------------------------------------------

#: Moderate per-client rate: enough traffic that injected faults are
#: actually read, low enough that the system stays stable.
INJECT_WORKLOAD_RATE = 0.05


def build_injected_simulator(
    injection: InjectionConfig | None,
    cycles: int = 8_000,
    warmup_cycles: int = 500,
    seed: int = 0,
    refresh_retention_s: float = 64e-3,
    injector: FaultInjector | None = None,
    obs: object = None,
    check_invariants: str = "off",
) -> MemorySystemSimulator:
    """The canonical injected workload: 3 clients on a 4-bank device.

    With ``injection=None`` (and no explicit ``injector``) the system is
    built on the plain :class:`MemoryController` — the true baseline an
    injection-disabled run must be bit-identical to.  Otherwise a
    :class:`ResilientController` carries the injector (pass
    ``InjectionConfig(enabled=False)`` for the disabled-but-attached
    configuration, or a pre-built ``injector`` for hand-placed maps).

    Everything is pinned by ``(cycles, warmup_cycles, seed, injection)``:
    re-runs are bit-identical.
    """
    org = Organization(
        n_banks=4, n_rows=2048, page_bits=4096, word_bits=16
    )
    device = DRAMDevice(organization=org, timing=PC100_TIMING)
    mapping = AddressMapping(organization=org)
    controller_config = ControllerConfig(
        refresh_retention_s=refresh_retention_s
    )
    if injection is None and injector is None:
        controller: MemoryController = MemoryController(
            device=device, mapping=mapping, config=controller_config
        )
    else:
        if injector is None:
            injector = FaultInjector(injection, organization=org)
        controller = ResilientController(
            device=device,
            mapping=mapping,
            config=controller_config,
            injector=injector,
        )
    quarter = org.total_words // 4
    clients = [
        MemoryClient(
            name="display",
            pattern=SequentialPattern(base=0, length=quarter),
            rate=INJECT_WORKLOAD_RATE,
            kind=ClientKind.STREAM,
        ),
        MemoryClient(
            name="video",
            pattern=SequentialPattern(base=quarter, length=quarter),
            rate=INJECT_WORKLOAD_RATE,
            read_fraction=0.7,
            kind=ClientKind.BLOCK,
            seed=seed + 7,
        ),
        MemoryClient(
            name="cpu",
            pattern=RandomPattern(
                base=0, length=org.total_words, seed=seed + 3
            ),
            rate=INJECT_WORKLOAD_RATE,
            read_fraction=0.6,
            kind=ClientKind.RANDOM,
            seed=seed + 11,
        ),
    ]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(
            cycles=cycles,
            warmup_cycles=warmup_cycles,
            check_invariants=check_invariants,
        ),
        obs=obs,
    )
