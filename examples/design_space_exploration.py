"""Full design-space exploration for a graphics controller.

Walks the complete paper workflow: advisability check (Section 2),
requirement capture, exhaustive organization sweep (Section 3), Pareto
frontier, quantized named solutions (Section 5), the logic<->memory die
trade (Section 1), and the embedded-vs-discrete verdict.

Run:  python examples/design_space_exploration.py
"""

from repro.apps import advisability_score
from repro.core import (
    ApplicationRequirements,
    DesignSpaceExplorer,
    LogicMemoryTrade,
    Quantizer,
)
from repro.core.tradeoffs import QUARTER_MICRON_DIE_BUDGET_MM2
from repro.units import MBIT


def main() -> None:
    # The application: a laptop 3D graphics controller (Section 2's
    # first conquered market, "8-32 Mbit ... mainly for frame storage").
    # An 800x600 frame store (double-buffered color, Z, textures) needs
    # about 26 Mbit and 4.6 Gbit/s of fill, texture and display traffic.
    requirements = ApplicationRequirements(
        name="laptop 3D graphics",
        capacity_bits=26 * MBIT,
        sustained_bandwidth_bits_per_s=4.6e9,
        max_latency_ns=300.0,
        volume_per_year=5_000_000,
        portable=True,
        locality=0.75,
    )
    print(
        f"graphics frame store: {requirements.capacity_mbit:.1f} Mbit, "
        f"{requirements.bandwidth_gbyte_per_s:.2f} GB/s"
    )

    # Step 1: should this project use eDRAM at all?
    score = advisability_score(
        volume_per_year=requirements.volume_per_year,
        product_lifetime_years=2.0,
        memory_mbit=requirements.capacity_mbit,
        required_bandwidth_gbyte_per_s=requirements.bandwidth_gbyte_per_s,
        portable=requirements.portable,
        needs_upgrade_path=False,
    )
    print(f"\nadvisability: {score:.2f} "
          f"({'recommended' if score >= 0.5 else 'not recommended'})")

    # Step 2: sweep the organization space.
    explorer = DesignSpaceExplorer()
    result = explorer.explore(requirements)
    print(
        f"\nswept {result.n_explored} organizations -> "
        f"{len(result.feasible)} feasible -> frontier of "
        f"{len(result.frontier)}"
    )

    # Step 3: quantize to an understandable catalog.
    print("\nquantized solution set:")
    for solution in Quantizer().named_solutions(result):
        metrics = solution.metrics
        print(
            f"  {solution.name:14s} {metrics.label:44s} "
            f"{metrics.power_w * 1e3:5.0f} mW {metrics.area_mm2:5.1f} mm^2 "
            f"{metrics.sustained_bandwidth_bits_per_s / 8e9:5.2f} GB/s "
            f"{metrics.unit_cost:6.2f}"
        )

    # Step 4: what does the memory cost in logic on the same die?
    trade = LogicMemoryTrade(die_budget_mm2=QUARTER_MICRON_DIE_BUDGET_MM2)
    best = result.min_area
    gates_left = trade.max_logic_for_memory(best.capacity_bits)
    print(
        f"\non a {QUARTER_MICRON_DIE_BUDGET_MM2:.0f} mm^2 die, "
        f"{best.capacity_mbit:.0f} Mbit leaves room for "
        f"{gates_left / 1e3:.0f} kgates of rendering logic"
    )
    print(
        f"exchange rate: {trade.exchange_rate_gates_per_mbit():.0f} "
        f"gates per Mbit"
    )

    # Step 5: the verdict vs. commodity parts.
    baseline = result.discrete_baseline
    if baseline is not None:
        best_power = result.min_power
        print(
            f"\nembedded {best_power.power_w:.2f} W / "
            f"{best_power.capacity_mbit:.0f} Mbit vs discrete "
            f"{baseline.power_w:.2f} W / {baseline.capacity_mbit:.0f} Mbit "
            f"({baseline.n_chips} chips): "
            f"{baseline.power_w / best_power.power_w:.1f}x power, "
            f"{baseline.capacity_bits / best_power.capacity_bits:.1f}x "
            f"over-provisioning avoided"
        )


if __name__ == "__main__":
    main()
