"""Host-speed-normalised timing.

The reference host is a 2-vCPU VM on a shared machine.  Each vCPU's
speed changes on its own, by up to 1.75x, over seconds to minutes, so
the wall time of a fixed piece of work spreads far wider across runs
than any regression bound.  Two things take most of that out:

* the run is pinned to one CPU (:func:`pin_to_one_cpu`; child processes
  inherit it), so every sample and its reference share one vCPU;
* every timed sample is bracketed by a *reference*: fixed work, owned by
  the benchmark so it never changes with the program, shaped like the
  work the workload times.  :class:`PythonReference` is interpreter
  work (dict updates, float arithmetic, method calls indexing a small
  NumPy array, a sort); :class:`LoopbackReference` is round trips over
  a local socket pair, for work that is mostly transport.

A *normalised* time is ``wall * nominal_s / ref``, where ``ref`` is the
mean of the reference's times just before and just after the sample and
``nominal_s`` is about the reference's time on the reference host while
its vCPU runs at full speed: the sample's seconds on a host running at
that speed.  The wall times stay in the ``--out`` document beside them.
"""

from __future__ import annotations

import os
import socket
import time
from contextlib import contextmanager

import numpy as np

#: A reference reading older than this is taken again before a sample.
REF_STALE_S = 0.25


class _Cells:
    def __init__(self) -> None:
        self.bits = np.zeros((32, 32), dtype=bool)
        self.writes: dict = {}

    def write(self, row: int, col: int, value: int) -> None:
        self.bits[row, col] = value
        self.writes[row] = self.writes.get(row, 0) + 1

    def read(self, row: int, col: int) -> bool:
        return bool(self.bits[row, col])


class PythonReference:
    """Interpreter work shaped like the DFT flow and the simulator."""

    #: 6.5-7.5 ms on the reference host at full speed; 11-12 ms slowed.
    nominal_s = 0.007

    def __call__(self) -> float:
        table: dict = {}
        cells = _Cells()
        acc = 0.0
        items = []
        for i in range(6_000):
            key = i & 255
            table[key] = table.get(key, 0) + 1
            acc += (i * 0.5) % 3.0
            row, col = (i >> 5) & 31, i & 31
            cells.write(row, col, i & 1)
            if cells.read(row, col):
                acc += 1.0
            items.append((key, acc))
        items.sort()
        return acc

    def close(self) -> None:
        pass


class LoopbackReference:
    """Round trips over a local socket pair, shaped like served jobs,
    whose time goes mostly to the kernel's socket paths.

    In the host's slow periods interpreter work slows more than served
    jobs do, so :class:`PythonReference` over-corrected their times by
    ~20%.  Over 12 minutes of 30 s windows, this reference halved the
    spread of normalised cold-job times (0.15 to 0.08 IQR / median)."""

    #: 4.8 ms on the reference host at full speed; ~7.5 ms slowed.
    nominal_s = 0.005
    ROUND_TRIPS = 1_200
    PAYLOAD = b"x" * 200

    def __init__(self) -> None:
        self._a, self._b = socket.socketpair()

    def _pass(self, sender, receiver) -> None:
        sender.sendall(self.PAYLOAD)
        pending = len(self.PAYLOAD)
        while pending:
            pending -= len(receiver.recv(pending))

    def __call__(self) -> None:
        for _ in range(self.ROUND_TRIPS):
            self._pass(self._a, self._b)
            self._pass(self._b, self._a)

    def close(self) -> None:
        self._a.close()
        self._b.close()


def pin_to_one_cpu() -> int | None:
    """Pin this process, and every process it starts, to its highest
    allowed CPU; returns it (None where affinity is unsupported)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sample:
    """One timed sample: wall seconds and normalised seconds."""

    __slots__ = ("wall_s", "norm_s")

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.norm_s = 0.0


class Meter:
    """Times samples between two readings of ``reference``.

    The reading taken after a sample serves as the next sample's
    reading before, unless more than :data:`REF_STALE_S` has passed.
    """

    def __init__(self, reference) -> None:
        self.reference = reference
        self.ref_times: list = []
        self._last = None  # (reference seconds, perf_counter when taken)

    def read_reference(self) -> float:
        started = time.perf_counter()
        self.reference()
        ended = time.perf_counter()
        self.ref_times.append(ended - started)
        self._last = (ended - started, ended)
        return ended - started

    @contextmanager
    def sample(self):
        """``with meter.sample() as s: ...`` fills ``s.wall_s`` and
        ``s.norm_s`` when the block ends."""
        last = self._last
        if last is None or time.perf_counter() - last[1] > REF_STALE_S:
            before = self.read_reference()
        else:
            before = last[0]
        sample = Sample()
        started = time.perf_counter()
        yield sample
        sample.wall_s = time.perf_counter() - started
        after = self.read_reference()
        sample.norm_s = (
            sample.wall_s * self.reference.nominal_s / ((before + after) / 2)
        )
