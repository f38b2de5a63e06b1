"""Stream prefetching: one of the paper's bandwidth techniques.

Section 4 credits the DRAM bandwidth explosion to "exploiting the fact
that an active row can act as a cache ... using prefetching and
pipelining techniques".  This module adds a sequential-stream prefetcher
to the memory controller: when a client's reads advance burst-by-burst,
the controller speculatively fetches the next bursts into a small
prefetch buffer; a later read that matches completes immediately, hiding
the DRAM latency entirely.

Prefetch traffic occupies real command/data-bus slots (the device model
underneath is shared), so the cost side — wasted bandwidth on useless
prefetches — is measured, not assumed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.controller.controller import MemoryController
from repro.controller.request import Request, RequestState


#: Request-id space for internal prefetch requests, far above any id the
#: simulator hands out.
_PREFETCH_ID_BASE = 1 << 40


@dataclass
class PrefetchingMemoryController(MemoryController):
    """Memory controller with a per-client sequential prefetcher.

    Attributes:
        prefetch_depth: Bursts fetched ahead of a detected stream.
        prefetch_buffer_capacity: Bursts held in the prefetch buffer
            (FIFO eviction).
    """

    prefetch_depth: int = 2
    prefetch_buffer_capacity: int = 16
    #: Consecutive sequential bursts a client must show before its
    #: stream is trusted enough to prefetch (throttles block-shaped
    #: traffic whose short runs would waste bandwidth).
    stream_threshold: int = 3

    _ready: OrderedDict = field(default_factory=OrderedDict, init=False)
    _run_length: dict = field(default_factory=dict, init=False)
    _pending_prefetch: set = field(default_factory=set, init=False)
    _active_prefetch: set = field(default_factory=set, init=False)
    _last_read: dict = field(default_factory=dict, init=False)
    _next_prefetch_id: int = field(default=_PREFETCH_ID_BASE, init=False)
    prefetch_issued: int = field(default=0, init=False)
    prefetch_hits: int = field(default=0, init=False)
    prefetch_evicted_unused: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.prefetch_depth < 1:
            raise ConfigurationError("prefetch depth must be >= 1")
        if self.prefetch_buffer_capacity < 1:
            raise ConfigurationError("prefetch buffer must hold >= 1")
        if self.stream_threshold < 1:
            raise ConfigurationError("stream threshold must be >= 1")

    # -- buffer helpers ---------------------------------------------------

    def _burst_base(self, address: int) -> int:
        burst = self.device.timing.burst_length
        return (address // burst) * burst

    def _buffer_insert(self, address: int) -> None:
        if address in self._ready:
            return
        while len(self._ready) >= self.prefetch_buffer_capacity:
            self._ready.popitem(last=False)
            self.prefetch_evicted_unused += 1
        self._ready[address] = True

    # -- overridden pipeline stages -----------------------------------------

    def _complete(self, request: Request, end_cycle: int) -> None:
        request.state = RequestState.COMPLETED
        request.completed_cycle = end_cycle
        if request.is_prefetch:
            self._active_prefetch.discard(request.address)
            self._buffer_insert(request.address)
        else:
            self.completed.append(request)

    def _accept(self, cycle: int) -> None:
        if len(self.window) >= self.config.window_size:
            return
        fifo = self.arbiter.select(self._fifo_list, cycle)
        if fifo is None:
            self._inject_prefetches(cycle)
            return
        request = fifo.pop()
        base = self._burst_base(request.address)
        if not request.is_read:
            # Writes invalidate any prefetched copy of the burst.
            self._ready.pop(base, None)
        elif base in self._ready:
            # Prefetch hit: the data is already on-chip; complete next
            # cycle with no DRAM traffic.
            del self._ready[base]
            self.prefetch_hits += 1
            request.state = RequestState.COMPLETED
            request.accepted_cycle = cycle
            request.issued_cycle = cycle
            request.completed_cycle = cycle + 1
            request.was_row_hit = True
            self.completed.append(request)
            self._observe_stream(request)
            self._inject_prefetches(cycle)
            return
        request.state = RequestState.ACCEPTED
        request.accepted_cycle = cycle
        request.decoded = self.mapping.decode(request.address)
        self.window.append(request)
        if request.is_read:
            self._observe_stream(request)
        self._inject_prefetches(cycle)

    # -- stream detection & injection --------------------------------------

    def _observe_stream(self, request: Request) -> None:
        burst = self.device.timing.burst_length
        base = self._burst_base(request.address)
        last = self._last_read.get(request.client)
        if last is not None and base == last:
            return  # repeat access within the same burst: no signal
        self._last_read[request.client] = base
        if last is None or base != last + burst:
            self._run_length[request.client] = 0
            return
        run = self._run_length.get(request.client, 0) + 1
        self._run_length[request.client] = run
        if run < self.stream_threshold:
            return
        total_words = self.device.organization.total_words
        for step in range(1, self.prefetch_depth + 1):
            target = base + step * burst
            if target + burst > total_words:
                break
            if (
                target in self._ready
                or target in self._pending_prefetch
                or target in self._active_prefetch
            ):
                continue
            self._pending_prefetch.add(target)

    def _inject_prefetches(self, cycle: int) -> None:
        """Move pending prefetch targets into the window when there is
        slack (never into the last free slot — client requests first)."""
        free = self.config.window_size - len(self.window)
        if free < 2:
            return
        for target in sorted(self._pending_prefetch):
            if free < 2:
                break
            self._pending_prefetch.discard(target)
            self._active_prefetch.add(target)
            request = Request(
                request_id=self._next_prefetch_id,
                client="__prefetch__",
                address=target,
                is_read=True,
                created_cycle=cycle,
                is_prefetch=True,
            )
            self._next_prefetch_id += 1
            request.state = RequestState.ACCEPTED
            request.accepted_cycle = cycle
            request.decoded = self.mapping.decode(target)
            self.window.append(request)
            self.prefetch_issued += 1
            free -= 1

    def _candidate_order(self, cycle: int):
        """Demand requests first; prefetches only fill leftover slots."""
        demand = [
            request for request in self.window if not request.is_prefetch
        ]
        speculative = [
            request for request in self.window if request.is_prefetch
        ]
        ordered = self.scheduler.candidates(demand, self.device, cycle)
        if speculative:
            ordered = ordered + self.scheduler.candidates(
                speculative, self.device, cycle
            )
        return ordered

    # -- statistics -----------------------------------------------------------

    def prefetch_accuracy(self) -> float:
        """Hits per issued prefetch (1.0 = every prefetch was used)."""
        if self.prefetch_issued == 0:
            return 0.0
        return self.prefetch_hits / self.prefetch_issued
