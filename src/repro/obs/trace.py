"""Command-timeline recording in Chrome trace-event JSON.

The recorder emits the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``:
a flat ``traceEvents`` list of instant (``ph: "i"``), complete
(``ph: "X"``) and counter (``ph: "C"``) events plus process/thread
metadata.  Cycles are converted to microseconds through the interface
clock, so the timeline is in real time and traces from different clock
rates line up.

Tracks (Perfetto rows) are lazily allocated by name — one per bank, one
per client, one for the command bus, one for refresh and one for
simulator markers — and the event count is capped so a runaway run
degrades to a truncated trace (with a drop counter) instead of
exhausting memory.
"""

from __future__ import annotations

import json

from repro.errors import ConfigurationError
from repro.obs.tracectx import coerce_trace


class TraceRecorder:
    """Collects trace events against a cycle clock.

    Attributes:
        clock_hz: Interface clock used to place cycles on the real-time
            axis (may be set after construction, before first event).
        max_events: Hard cap on stored events; further events are
            counted in ``dropped_events`` and discarded.
    """

    def __init__(
        self, clock_hz: float | None = None, max_events: int = 1_000_000
    ) -> None:
        if max_events < 1:
            raise ConfigurationError("max_events must be >= 1")
        if clock_hz is not None and clock_hz <= 0:
            raise ConfigurationError("clock_hz must be positive")
        self.clock_hz = clock_hz
        self.max_events = max_events
        self.events: list = []
        self.dropped_events = 0
        self._tracks: dict = {}
        self.context = None

    def set_context(self, context) -> None:
        """Attach a distributed trace context (context/dict/None).

        Every event emitted afterwards carries ``trace_id``/``span_id``
        in its args, and :meth:`to_dict` exposes the context in
        ``otherData`` — which is how ``repro trace --merge`` stitches a
        simulator timeline into its parent distributed trace.  Without
        a context the output is byte-identical to the pre-tracing
        format.
        """
        self.context = coerce_trace(context)

    # -- time base -----------------------------------------------------------

    def set_clock(self, clock_hz: float) -> None:
        if clock_hz <= 0:
            raise ConfigurationError("clock_hz must be positive")
        self.clock_hz = clock_hz

    def _ts_us(self, cycle: float) -> float:
        if self.clock_hz is None:
            raise ConfigurationError(
                "TraceRecorder needs clock_hz before recording events"
            )
        return cycle * 1e6 / self.clock_hz

    # -- tracks --------------------------------------------------------------

    def track(self, name: str) -> int:
        """Thread id for a named track (created with metadata on first use)."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = len(self._tracks) + 1
            self._tracks[name] = tid
            self.events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return tid

    # -- events --------------------------------------------------------------

    def _emit(self, event: dict) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        if self.context is not None:
            args = event.setdefault("args", {})
            args["trace_id"] = self.context.trace_id
            args["span_id"] = self.context.span_id
        self.events.append(event)

    def instant(self, track: str, name: str, cycle: int, **args) -> None:
        self._emit(
            {
                "name": name,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": self._ts_us(cycle),
                "pid": 1,
                "tid": self.track(track),
                "args": dict(args, cycle=cycle),
            }
        )

    def complete(
        self,
        track: str,
        name: str,
        start_cycle: int,
        end_cycle: int,
        **args,
    ) -> None:
        if end_cycle < start_cycle:
            raise ConfigurationError(
                f"trace span ends ({end_cycle}) before it starts "
                f"({start_cycle})"
            )
        self._emit(
            {
                "name": name,
                "ph": "X",
                "ts": self._ts_us(start_cycle),
                "dur": self._ts_us(end_cycle - start_cycle),
                "pid": 1,
                "tid": self.track(track),
                "args": dict(
                    args, start_cycle=start_cycle, end_cycle=end_cycle
                ),
            }
        )

    def counter(self, track: str, name: str, cycle: int, **values) -> None:
        self._emit(
            {
                "name": name,
                "ph": "C",
                "ts": self._ts_us(cycle),
                "pid": 1,
                "tid": self.track(track),
                "args": dict(values),
            }
        )

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "repro memory system"},
            }
        ]
        events.extend(self.events)
        other = {
            "clock_hz": self.clock_hz,
            "dropped_events": self.dropped_events,
        }
        if self.context is not None:
            other["trace"] = self.context.to_dict()
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": other,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)
            handle.write("\n")
