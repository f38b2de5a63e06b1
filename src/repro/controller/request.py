"""Client requests as the controller sees them."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.dram.organizations import DecodedAddress


class RequestState(enum.Enum):
    """Lifecycle of a request inside the memory subsystem."""

    QUEUED = "queued"  # waiting in a client FIFO
    ACCEPTED = "accepted"  # in the controller's scheduling window
    ISSUED = "issued"  # column command sent, burst in flight
    COMPLETED = "completed"  # last data beat done


@dataclass(eq=False)
class Request:
    """One burst access request.

    Requests compare by identity: ids are unique, and the controller's
    window removal must not build field tuples per comparison.

    Attributes:
        request_id: Unique id assigned at creation.
        client: Originating client name.
        address: Word address of the first word of the burst.
        is_read: Read (True) or write (False).
        created_cycle: Cycle the client generated the request.
    """

    request_id: int
    client: str
    address: int
    is_read: bool
    created_cycle: int

    state: RequestState = field(default=RequestState.QUEUED, init=False)
    decoded: DecodedAddress | None = field(default=None, init=False)
    accepted_cycle: int | None = field(default=None, init=False)
    issued_cycle: int | None = field(default=None, init=False)
    completed_cycle: int | None = field(default=None, init=False)
    was_row_hit: bool | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise ConfigurationError("request id must be >= 0")
        if self.address < 0:
            raise ConfigurationError("address must be >= 0")
        if self.created_cycle < 0:
            raise ConfigurationError("created cycle must be >= 0")

    @property
    def latency_cycles(self) -> int:
        """Creation-to-completion latency; only valid once completed."""
        if self.completed_cycle is None:
            raise ConfigurationError(
                f"request {self.request_id} has not completed"
            )
        return self.completed_cycle - self.created_cycle

    @property
    def queueing_cycles(self) -> int:
        """Cycles spent in the client FIFO before controller acceptance."""
        if self.accepted_cycle is None:
            raise ConfigurationError(
                f"request {self.request_id} was never accepted"
            )
        return self.accepted_cycle - self.created_cycle
