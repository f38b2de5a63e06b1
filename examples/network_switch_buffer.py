"""Network switch packet buffering: the high-end eDRAM market.

Paper Section 2: "memory sizes of up to 128 Mbit and interface widths up
to 512 [bits] are required for reading and writing data packets out of
large buffers."  This example sizes the shared buffer of a 16-port
switch (every packet is written once and read once, so the buffer
needs twice the aggregate line rate), builds the matching eDRAM module,
simulates ingress/egress traffic, and compares test economics for the
big module.

Run:  python examples/network_switch_buffer.py
"""

from repro.controller import MemoryController, TDMArbiter
from repro.core import Quantizer
from repro.dft import BISTController, MARCH_C_MINUS, TestCostModel, LOGIC_TESTER
from repro.dram import AddressMapping, EDRAMMacro, MappingScheme
from repro.sim import MemorySystemSimulator, SimulationConfig
from repro.traffic import MemoryClient, SequentialPattern
from repro.units import MBIT


def main() -> None:
    ports, line_rate = 16, 1.25e9
    aggregate = ports * line_rate
    # Absorb 2 ms of congestion; write + read every packet with a 1.2x
    # internal speedup for segmentation waste and control traffic.
    buffer_bits = int(aggregate * 2e-3)
    bandwidth = 2.0 * aggregate * 1.2
    print(f"switch: {ports} ports x {line_rate / 1e9:.2f} Gbit/s")
    print(
        f"  buffer {buffer_bits / MBIT:.1f} Mbit "
        f"({buffer_bits // 424} ATM cells), memory bandwidth "
        f"{bandwidth / 1e9:.1f} Gbit/s"
    )
    # The narrowest constructible (power-of-two) width at 143 MHz.
    width = 16
    while width * 143e6 < bandwidth:
        width *= 2
    print(f"  interface width at 143 MHz: {width} bits (paper: up to 512)")

    quantizer = Quantizer()
    size = quantizer.snap_size(buffer_bits)
    print(
        f"  module snapped to {size / MBIT:.2f} Mbit "
        f"({quantizer.quantization_overhead(buffer_bits):.1%} "
        f"overhead)"
    )
    macro = EDRAMMacro.build(
        size_bits=size, width=width, banks=16, page_bits=8192
    )
    print(
        f"  macro area {macro.area_mm2():.0f} mm^2, peak "
        f"{macro.peak_bandwidth_bits_per_s / 8e9:.2f} GB/s"
    )

    # Ingress writes + egress reads under a TDM arbiter: switches need
    # hard per-port guarantees, not work conservation.
    device = macro.device()
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(device.organization, MappingScheme.ROW_BANK_COL),
        arbiter=TDMArbiter(
            schedule=["ingress", "egress"], work_conserving=False
        ),
    )
    words = device.organization.total_words
    clients = [
        MemoryClient(
            name="ingress",
            pattern=SequentialPattern(base=0, length=words),
            rate=0.45,
            read_fraction=0.0,
        ),
        MemoryClient(
            name="egress",
            pattern=SequentialPattern(base=words // 2, length=words),
            rate=0.45,
            read_fraction=1.0,
        ),
    ]
    simulator = MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(cycles=12_000, warmup_cycles=1_000),
    )
    result = simulator.run()
    print(f"\npacket traffic simulation: {result.summary()}")
    for name in ("ingress", "egress"):
        stats = result.latency_by_client[name]
        print(
            f"  {name}: mean {stats.mean:.1f} cyc, "
            f"worst {stats.maximum} cyc (TDM bounds it)"
        )

    # Test economics for the big module (Section 6).
    with_bist = TestCostModel(
        tester=LOGIC_TESTER,
        bist=BISTController(internal_width_bits=width),
    )
    without = TestCostModel(tester=LOGIC_TESTER)
    print(
        f"\nMarch C- on {size / MBIT:.0f} Mbit: "
        f"{without.total_time_s(MARCH_C_MINUS, size):.1f} s/die external "
        f"vs {with_bist.total_time_s(MARCH_C_MINUS, size):.2f} s/die with "
        f"{width}-bit BIST"
    )


if __name__ == "__main__":
    main()
