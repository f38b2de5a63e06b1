"""Bounded per-client request FIFOs with high-water-mark tracking.

"Optimizing the access scheme to minimize the latency for the memory
clients and thus minimize the necessary FIFO depth" (Section 3): the FIFO
depth a client needs is set by the worst-case service latency it sees, so
the simulator tracks the high-water mark of every FIFO — that observed
depth *is* the sizing answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.controller.request import Request


@dataclass
class ClientFifo:
    """A bounded FIFO between one client and the controller.

    Attributes:
        client: Owning client name.
        capacity: Maximum queued requests; a full FIFO back-pressures the
            client (stall cycles are counted).
    """

    client: str
    capacity: int = 8

    _queue: deque = field(default_factory=deque, init=False)
    high_water_mark: int = field(default=0, init=False)
    stall_cycles: int = field(default=0, init=False)
    total_enqueued: int = field(default=0, init=False)
    total_dequeued: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(
                f"FIFO {self.client}: capacity must be >= 1"
            )

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._queue

    def push(self, request: Request) -> None:
        if self.full:
            raise ConfigurationError(
                f"FIFO {self.client} overflow (capacity {self.capacity})"
            )
        self._queue.append(request)
        self.total_enqueued += 1
        self.high_water_mark = max(self.high_water_mark, len(self._queue))

    def peek(self) -> Request | None:
        return self._queue[0] if self._queue else None

    def pop(self) -> Request:
        if not self._queue:
            raise ConfigurationError(f"FIFO {self.client} underflow")
        self.total_dequeued += 1
        return self._queue.popleft()

    def record_stall(self) -> None:
        """The client wanted to issue but the FIFO was full."""
        self.stall_cycles += 1
