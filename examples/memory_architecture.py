"""Memory architecture of a set-top decoder chip: partition, place, map.

The paper's Section 3 system-level problems, solved in order for one
chip: decide which memory blocks become SRAM / eDRAM / off-chip
(partitioning), give the hot eDRAM buffers private banks so their
clients do not thrash each other's pages (allocation), and compare the
region-private address mapping that placement relies on against
bank interleaving (mapping) — by simulating both.

Run:  python examples/memory_architecture.py
"""

from repro.controller import MemoryController
from repro.core import MemoryBlock, Partitioner
from repro.dram import AddressMapping, EDRAMMacro, MappingScheme
from repro.sim import MemorySystemSimulator, SimulationConfig
from repro.traffic import (
    MemoryClient,
    MotionCompensationPattern,
    SequentialPattern,
)
from repro.units import MBIT


def main() -> None:
    # 1. Partition: which blocks live in which technology?
    blocks = [
        MemoryBlock("bitstream buffer", int(1.75 * MBIT), 0.03e9),
        MemoryBlock("frame stores", int(9.5 * MBIT), 0.45e9, 60.0),
        MemoryBlock("display buffer", int(4.75 * MBIT), 0.25e9, 60.0),
        MemoryBlock("mb line buffer", int(0.04 * MBIT), 1.5e9, 12.0),
    ]
    plan = Partitioner(area_budget_mm2=25.0).partition(blocks)
    print("partition (Section 3: SRAM/DRAM and on/off-chip):")
    for block in blocks:
        print(
            f"  {block.name:18s} {block.size_mbit:6.2f} Mbit -> "
            f"{plan.assignment[block.name].value}"
        )
    print(
        f"  on-chip area {plan.area_mm2:.1f} mm^2, access power "
        f"{plan.power_w * 1e3:.0f} mW, memory cost {plan.unit_cost:.2f}"
    )

    # 2. Place the eDRAM-resident buffers into banks.  They total 14.25
    #    Mbit; an 18-Mbit module (eDRAM's 256-Kbit granularity makes the
    #    slack cheap, vs the 4x jump a commodity part would force) gives
    #    the frame stores banks 0-4 and the display buffer banks 5-7.
    #    Under the region-private BANK_ROW_COL mapping the bank is the
    #    high address bits, so a buffer's base word picks its banks.
    macro = EDRAMMacro.build(
        size_bits=18 * MBIT, width=64, banks=8, page_bits=2048
    )
    bank_words = macro.organization.total_words // macro.organization.n_banks
    placements = {
        "frame stores": (0, int(9.5 * MBIT) // 64),
        "display buffer": (5 * bank_words, int(4.75 * MBIT) // 64),
    }
    print("\nbank placement (Section 3: memory allocation):")
    for name, (base, words) in placements.items():
        first = base // bank_words
        last = (base + words - 1) // bank_words
        print(f"  {name:18s} banks {first}-{last} @ word {base}")

    # 3. Mapping: the same traffic, region-private vs bank-interleaved.
    def simulate(scheme):
        device = macro.device()
        controller = MemoryController(
            device=device,
            mapping=AddressMapping(device.organization, scheme),
        )
        frame_base, _ = placements["frame stores"]
        display_base, display_words = placements["display buffer"]
        clients = [
            MemoryClient(
                name="display",
                pattern=SequentialPattern(
                    base=display_base, length=display_words
                ),
                rate=0.08,
            ),
            MemoryClient(
                name="motion-comp",
                pattern=MotionCompensationPattern(
                    base=frame_base,
                    width=90,  # 720 pixels / 8 pixels-per-64-bit-word
                    height=576,
                    block_w=2,
                    block_h=16,
                    max_displacement=8,
                    seed=4,
                ),
                rate=0.12,
            ),
        ]
        simulator = MemorySystemSimulator(
            controller=controller,
            clients=clients,
            config=SimulationConfig(cycles=12_000, warmup_cycles=1_000),
        )
        return simulator.run()

    private = simulate(MappingScheme.BANK_ROW_COL)
    interleaved = simulate(MappingScheme.ROW_BANK_COL)
    print("\naddress mapping (Section 3: mapping of the data into memory):")
    print(f"  region-private  : {private.summary()}")
    print(f"  bank-interleaved: {interleaved.summary()}")
    print(
        f"  display client latency "
        f"{private.latency_by_client['display'].mean:.1f} vs "
        f"{interleaved.latency_by_client['display'].mean:.1f} cycles"
    )


if __name__ == "__main__":
    main()
