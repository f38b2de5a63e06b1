"""Why eDRAM does NOT capture PC main memory (paper Section 2).

"However, it is unlikely that edram will capture the PC market for main
memory, as the need for flexibility and an upgrade path is too strong."

This example runs the paper's own reasoning through the library: the
advisability rules veto the project despite enormous volume, and the
PC-granularity analysis shows the commodity path's actual pain (devices
outgrowing systems) — a pain an embedded solution cannot fix, because
it would freeze the memory size entirely.

Run:  python examples/pc_main_memory.py
"""

from repro.apps import (
    PC_GENERATIONS,
    advisability_score,
    device_growth_rate,
    forced_overprovision_mbit,
    system_growth_rate,
)
from repro.reporting import Table


def main() -> None:
    # The project, as its enormous volume would argue for it, and as
    # its upgrade requirement actually decides it:
    project = dict(
        volume_per_year=100_000_000,
        product_lifetime_years=4.0,
        memory_mbit=64.0,
        required_bandwidth_gbyte_per_s=0.8,
        portable=False,
    )
    without_upgrades = advisability_score(needs_upgrade_path=False, **project)
    score = advisability_score(
        needs_upgrade_path=True, **project  # the decisive fact
    )
    print(
        f"advisability of eDRAM PC main memory: {score:.2f} "
        f"({'recommended' if score >= 0.5 else 'vetoed'}); without the "
        f"upgrade path it would score {without_upgrades:.2f}"
    )

    # The commodity path's own structural problem, quantified:
    print(
        f"\ndevice capacity grows {device_growth_rate():.0%}/yr but "
        f"systems only {system_growth_rate():.0%}/yr "
        f"(the paper's 'half the rate'):"
    )
    table = Table(
        title="PC memory granularity by platform generation",
        columns=["year", "device", "rank increment", "typical system",
                 "increment/system"],
    )
    for generation in PC_GENERATIONS:
        table.add_row(
            generation.year,
            f"{generation.device_capacity_mbit:g} Mbit "
            f"x{generation.device_width_bits}",
            f"{generation.increment_mbit} Mbit",
            f"{generation.typical_system_mbyte} MB",
            f"{generation.increment_fraction_of_system:.1f}x",
        )
    print(table.render())

    pc98 = PC_GENERATIONS[-1]
    wanted = 320  # Mbit: a 40-MB working set
    extra = forced_overprovision_mbit(wanted, pc98)
    print(
        f"\nwanting {wanted} Mbit in {pc98.year} forces buying "
        f"{wanted + extra:.0f} Mbit ({extra:.0f} Mbit over) — yet the "
        f"upgrade path that causes this waste is exactly what eDRAM "
        f"cannot offer, so the commodity DIMM keeps the socket."
    )


if __name__ == "__main__":
    main()
