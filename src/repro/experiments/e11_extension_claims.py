"""E11: the paper sentences behind the extension models (Sections 1-6).

Claims: on-chip wiring gives higher speed and better noise immunity;
the DRAM supply sits below the logic supply but will reverse; higher
per-chip power means a hotter junction and shorter retention; the eDRAM
market rises to $4-8bn in 2001 and eDRAM will not capture PC main
memory; embedded needs volume to beat discrete; bandwidth is paid for
with burst length while latency improves ~10 %/yr; PC memory systems
grew at only half the device rate; embedded test data is compressed
on-chip, at an aliasing risk and without a fail bitmap.
"""

from __future__ import annotations

from repro.apps.markets import MarketForecast, rank_segments
from repro.apps.pcmemory import device_growth_rate, system_growth_rate
from repro.cost.economics import ChipEconomics, SystemCostModel
from repro.cost.wafer import WaferSpec
from repro.dft.compression import SignatureCompressor
from repro.dft.march import MARCH_C_MINUS
from repro.dram.edram import EDRAMMacro
from repro.dram.generations import (
    GENERATIONS,
    bandwidth_growth,
    burst_granularity_bits,
    latency_improvement_per_year,
)
from repro.power.interface import OFF_CHIP_BUS, ON_CHIP_BUS
from repro.power.signal import OFF_CHIP_TRACE, ON_CHIP_WIRE, speed_advantage
from repro.power.supplies import SupplyPlan, projected_plan, reversal_year
from repro.power.thermal import ThermalModel, retention_time_at
from repro.reporting.report import ExperimentReport
from repro.units import MBIT


def run() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E11",
        title="The paper sentences behind the extension models",
        paper_section="Sections 1, 2, 4 and 6",
    )
    on_margin = ON_CHIP_WIRE.noise_margin_v(ON_CHIP_BUS.swing_v)
    off_margin = OFF_CHIP_TRACE.noise_margin_v(OFF_CHIP_BUS.swing_v)
    report.check(
        claim="on-chip wires: higher speeds, enhanced noise immunity",
        paper_value="faster, more noise margin",
        measured=(
            f"toggle rate x{speed_advantage():.1f}; noise margin "
            f"{on_margin:.3f} V on-chip vs {off_margin:.3f} V off-chip"
        ),
        holds=speed_advantage() > 1.0 and on_margin > off_margin,
    )
    today = SupplyPlan()
    year = reversal_year()
    reversed_plan = projected_plan(year) if year is not None else today
    report.check(
        claim="DRAM supply below the logic supply, but it will reverse",
        paper_value="2.5 V < 3.3 V, then reversed",
        measured=(
            f"{today.year}: DRAM {today.dram_vdd:.2f} V < logic "
            f"{today.logic_vdd:.2f} V; reversed in {year}: DRAM "
            f"{reversed_plan.dram_vdd:.2f} V > logic "
            f"{reversed_plan.logic_vdd:.2f} V"
        ),
        holds=(
            (today.dram_vdd, today.logic_vdd) == (2.5, 3.3)
            and not today.dram_rail_is_higher()
            and year is not None
        ),
    )
    thermal = ThermalModel()
    cool, hot = (thermal.junction_c(power) for power in (1.0, 4.0))
    cool_retention, hot_retention = map(retention_time_at, (cool, hot))
    report.check(
        claim="more power per chip: hotter junction, shorter retention",
        paper_value="Tj up, retention down",
        measured=(
            f"1 W: {cool:.0f} C, {cool_retention:.2f} s; "
            f"4 W: {hot:.0f} C, {hot_retention:.3f} s"
        ),
        holds=hot > cool and hot_retention < cool_retention,
    )
    forecast_2001 = MarketForecast().value_usd(2001)
    report.check(
        claim="the eDRAM market rises to $4-8bn in 2001",
        paper_value="$4-8bn",
        measured=f"${forecast_2001 / 1e9:.2f}bn",
        holds=4e9 <= forecast_2001 <= 8e9,
    )
    last_segment, last_score = rank_segments()[-1]
    report.check(
        claim="eDRAM unlikely to capture PC main memory (upgrade path)",
        paper_value="ranks last",
        measured=f"last: {last_segment.name}, score {last_score:.1f}",
        holds=last_segment.name == "PC main memory" and last_score == 0.0,
    )
    low, high, crossover = _volume_rule()
    crossover_text = "never" if crossover is None else f"{crossover:,}"
    report.check(
        claim="embedded needs high product volume to beat discrete",
        paper_value="volume usually high",
        measured=(
            f"crossover {crossover_text} units; 20,000: "
            f"${low[0]:.2f} vs ${low[1]:.2f}; 1,000,000: "
            f"${high[0]:.2f} vs ${high[1]:.2f} (embedded vs discrete)"
        ),
        holds=(
            low[0] > low[1]
            and high[0] < high[1]
            and crossover is not None
            and 20_000 < crossover <= 1_000_000
        ),
    )
    bursts = [burst_granularity_bits(entry) for entry in GENERATIONS]
    growth = bandwidth_growth(1985, 1999)
    latency = latency_improvement_per_year(1985, 1999)
    report.check(
        claim="bandwidth paid with burst lengths; latency ~10 %/yr",
        paper_value="BW x100, latency <=10 %/yr, longer bursts",
        measured=(
            f"1985-1999: BW x{growth:.0f}, latency {latency:.1%}/yr, "
            f"burst {bursts[0]} -> {bursts[-1]} bits"
        ),
        holds=(
            growth >= 100
            and latency <= 0.10
            and bursts == sorted(bursts)
            and bursts[-1] > bursts[0]
        ),
    )
    device, system = device_growth_rate(), system_growth_rate()
    report.check(
        claim="PC memory systems grew at only half the device rate",
        paper_value="~1/2",
        measured=(
            f"system {system:.0%}/yr vs device {device:.0%}/yr: "
            f"ratio {system / device:.2f}"
        ),
        holds=0.4 <= system / device <= 0.6,
    )
    misr = SignatureCompressor()
    compressed = misr.offchip_bits(MARCH_C_MINUS, 64 * MBIT)
    raw = misr.offchip_bits_uncompressed(MARCH_C_MINUS, 64 * MBIT)
    report.check(
        claim="on-chip compression of test data cuts off-chip width",
        paper_value="compress on-chip",
        measured=(
            f"64 Mbit March C-: {compressed} bits off-chip vs {raw:,}; "
            f"aliasing 2^-{misr.signature_bits}; fail bitmap lost"
        ),
        holds=(
            compressed < raw
            and misr.aliasing_probability() == 2.0 ** -misr.signature_bits
            and not misr.preserves_fail_bitmap()
        ),
    )
    return report


def _volume_rule() -> tuple:
    """Unit costs (embedded, discrete) at 20k and 1M units, and the
    crossover volume, for a 16-Mbit, 256-bit need: one merged die
    against a logic ASIC plus sixteen x16 commodity parts (64 Mbit)."""
    model = SystemCostModel(
        embedded=ChipEconomics(
            wafer=WaferSpec(cost_multiplier=1.15), nre=3.0e6
        ),
        discrete_logic=ChipEconomics(
            wafer=WaferSpec(cost_multiplier=1.0), nre=1.5e6
        ),
    )
    memory_area = EDRAMMacro.build(size_bits=16 * MBIT, width=256).area_mm2()

    def costs(volume: int) -> tuple:
        return (
            model.embedded_unit_cost(memory_area, 60.0, 160, 1.0, volume),
            model.discrete_unit_cost(60.0, 460, 1.2, 64.0, 16, volume),
        )

    crossover = model.crossover_volume(
        memory_area_mm2=memory_area,
        logic_area_mm2=60.0,
        embedded_pins=160,
        embedded_power_w=1.0,
        discrete_logic_pins=460,
        discrete_logic_power_w=1.2,
        memory_mbit=64.0,
        n_dram_chips=16,
    )
    return costs(20_000), costs(1_000_000), crossover
