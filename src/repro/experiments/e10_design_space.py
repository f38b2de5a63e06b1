"""E10: design-space exploration and quantization (Sections 3, 5, 7).

Claims: size, interface width and organization "are now available as
design parameters"; suppliers should "quantize the design space into a
set of understandable if slightly sub-optimal solutions"; embedded
solutions dominate the discrete baseline on the axes that matter.
"""

from __future__ import annotations

from repro.core.explorer import DesignSpaceExplorer
from repro.core.quantizer import Quantizer
from repro.core.requirements import ApplicationRequirements
from repro.apps.mpeg2 import MPEG2MemoryBudget
from repro.reporting.report import ExperimentReport
from repro.reporting.tables import Table


def mpeg2_requirements() -> ApplicationRequirements:
    """The MPEG2 decoder as a design-space customer."""
    budget = MPEG2MemoryBudget()
    return ApplicationRequirements(
        name="MPEG2 decoder",
        capacity_bits=budget.total_bits,
        sustained_bandwidth_bits_per_s=budget.total_bandwidth_bits_per_s(),
        max_latency_ns=400.0,
        volume_per_year=10_000_000,
        locality=0.6,
    )


def run() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E10",
        title="Design-space exploration and quantized solutions",
        paper_section="Sections 3, 5, 7",
    )
    explorer = DesignSpaceExplorer()
    result = explorer.explore(mpeg2_requirements())
    report.check(
        claim="organization parameters span a real design space",
        paper_value="banks, page length, word width, interface, size",
        measured=(
            f"{result.n_explored} configurations evaluated, "
            f"{len(result.feasible)} feasible"
        ),
        holds=result.n_explored > 100 and len(result.feasible) > 10,
    )
    report.check(
        claim="the frontier is a small, understandable set",
        paper_value="quantize into understandable solutions",
        measured=(
            f"Pareto frontier has {len(result.frontier)} of "
            f"{len(result.feasible)} feasible configurations"
        ),
        holds=0 < len(result.frontier) <= 0.25 * len(result.feasible),
    )
    named = Quantizer().named_solutions(result)
    report.check(
        claim="named solution set covers the objectives",
        paper_value="if slightly sub-optimal solutions",
        measured=", ".join(
            f"{solution.name}: {solution.metrics.label}"
            for solution in named[:3]
        )
        + ", ...",
        holds=len(named) >= 6,
    )
    baseline = result.discrete_baseline
    assert baseline is not None
    best_power = result.min_power
    report.check(
        claim="embedded solutions beat the commodity baseline on power",
        paper_value="(Section 1's power argument, applied)",
        measured=(
            f"best embedded {best_power.power_w:.2f} W vs discrete "
            f"{baseline.power_w:.2f} W "
            f"({baseline.power_w / best_power.power_w:.1f}x)"
        ),
        holds=baseline.power_w > best_power.power_w,
    )
    report.check(
        claim="embedded installs far less capacity",
        paper_value="memory sizes can be customized",
        measured=(
            f"embedded {best_power.capacity_mbit:.0f} Mbit vs discrete "
            f"{baseline.capacity_mbit:.0f} Mbit for a "
            f"{mpeg2_requirements().capacity_mbit:.1f}-Mbit need"
        ),
        holds=best_power.capacity_bits <= baseline.capacity_bits,
    )
    return report


def render_table() -> str:
    explorer = DesignSpaceExplorer()
    result = explorer.explore(mpeg2_requirements())
    named = Quantizer().named_solutions(result)
    table = Table(
        title="E10: quantized solution set for the MPEG2 decoder",
        columns=["solution", "config", "power", "area",
                 "sustained BW", "latency", "cost"],
    )
    for solution in named:
        metrics = solution.metrics
        table.add_row(
            solution.name,
            metrics.label,
            f"{metrics.power_w * 1e3:.0f} mW",
            f"{metrics.area_mm2:.1f} mm^2",
            f"{metrics.sustained_bandwidth_bits_per_s / 8e9:.2f} GB/s",
            f"{metrics.mean_latency_ns:.0f} ns",
            f"{metrics.unit_cost:.2f}",
        )
    baseline = result.discrete_baseline
    if baseline is not None:
        table.add_row(
            "discrete baseline",
            baseline.label,
            f"{baseline.power_w * 1e3:.0f} mW",
            "-",
            f"{baseline.sustained_bandwidth_bits_per_s / 8e9:.2f} GB/s",
            f"{baseline.mean_latency_ns:.0f} ns",
            f"{baseline.unit_cost:.2f}",
        )
    return table.render()
