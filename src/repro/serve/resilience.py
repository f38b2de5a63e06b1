"""Cooperative cancellation for the exploration service.

:class:`CancelToken` is a cancellation flag with an optional monotonic
deadline.  The service hands one to every cold execution;
``Sweep.run`` and every executor check it at chunk boundaries and
the simulator watchdog checks it at its 512-cycle cadence, so an
abandoned or expired job frees its executor thread instead of running
to completion.
"""

from __future__ import annotations

import threading
import time

from repro.errors import CancelledError, ConfigurationError


class CancelToken:
    """Cooperative cancellation flag with an optional deadline.

    Thread-safe; checks are cheap enough for per-point cadence.  The
    first ``cancel`` wins and pins ``reason``; a lapsed deadline
    self-cancels with reason ``"deadline"`` on the next check.
    """

    def __init__(self, deadline_s: float | None = None) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")
        self._event = threading.Event()
        self.reason: str | None = None
        self._deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation; returns True on the first call only."""
        if self._event.is_set():
            return False
        self.reason = reason
        self._event.set()
        return True

    @property
    def cancelled(self) -> bool:
        if self._event.is_set():
            return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            self.cancel("deadline")
            return True
        return False

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (None = no deadline)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise CancelledError(
                f"cancelled ({self.reason or 'cancelled'})"
            )
