"""Canned instrumented workloads for the `repro trace/metrics` CLI.

The MPEG2-decoder mix mirrors the paper's Section 4.1 memory subsystem
(and :mod:`repro.apps.mpeg2`): a display output stream, a
motion-compensation read engine and a reconstruction write engine over
the frame stores, a bitstream buffer client, and a CPU-like random
client — all sharing one embedded macro.  It is the standard target for
``repro trace`` because it exercises every instrumented path: row hits
(display), row misses and bank conflicts (motion compensation), writes
(reconstruction), refresh and back-pressure.
"""

from __future__ import annotations

from repro.controller.controller import ControllerConfig, MemoryController
from repro.dram.edram import EDRAMMacro
from repro.dram.organizations import AddressMapping, MappingScheme
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.traffic.client import ClientKind, MemoryClient
from repro.traffic.patterns import (
    BlockPattern,
    RandomPattern,
    SequentialPattern,
)
from repro.units import MBIT


def mpeg2_decoder_simulator(
    cycles: int = 8_000,
    warmup_cycles: int = 1_000,
    load: float = 1.2,
    banks: int = 8,
    page_bits: int = 4096,
    obs=None,
) -> MemorySystemSimulator:
    """MPEG2-decoder-style five-client system on a 16-Mbit macro.

    ``load`` is the total offered fraction of peak bandwidth, split
    across the clients roughly like the decoder's traffic components
    (display and motion compensation dominate, bitstream is light).
    """
    macro = EDRAMMacro.build(
        size_bits=16 * MBIT, width=64, banks=banks, page_bits=page_bits
    )
    device = macro.device()
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(
            device.organization, MappingScheme.ROW_BANK_COL
        ),
        config=ControllerConfig(),
    )
    total_words = device.organization.total_words
    burst = device.timing.burst_length
    # Traffic shares of the offered load (sum = 1.0): display reads,
    # motion-compensation reads, reconstruction writes, bitstream,
    # CPU-ish housekeeping.
    shares = {
        "display": 0.35,
        "motion": 0.30,
        "reconstruct": 0.20,
        "bitstream": 0.05,
        "cpu": 0.10,
    }
    frame_base = total_words // 4
    clients = [
        MemoryClient(
            name="display",
            pattern=SequentialPattern(base=0, length=frame_base),
            rate=load * shares["display"] / burst,
            kind=ClientKind.STREAM,
            seed=1,
        ),
        MemoryClient(
            name="motion",
            pattern=BlockPattern(
                base=frame_base,
                width=720,
                height=256,
                block_w=16,
                block_h=16,
            ),
            rate=load * shares["motion"] / burst,
            kind=ClientKind.BLOCK,
            seed=2,
        ),
        MemoryClient(
            name="reconstruct",
            pattern=BlockPattern(
                base=2 * frame_base,
                width=720,
                height=256,
                block_w=16,
                block_h=16,
            ),
            rate=load * shares["reconstruct"] / burst,
            read_fraction=0.0,
            kind=ClientKind.BLOCK,
            seed=3,
        ),
        MemoryClient(
            name="bitstream",
            pattern=SequentialPattern(
                base=3 * frame_base, length=frame_base // 4
            ),
            rate=load * shares["bitstream"] / burst,
            kind=ClientKind.STREAM,
            seed=4,
        ),
        MemoryClient(
            name="cpu",
            pattern=RandomPattern(base=0, length=total_words, seed=5),
            rate=load * shares["cpu"] / burst,
            read_fraction=0.6,
            kind=ClientKind.RANDOM,
            seed=5,
        ),
    ]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(
            cycles=cycles,
            warmup_cycles=warmup_cycles,
        ),
        obs=obs,
    )
