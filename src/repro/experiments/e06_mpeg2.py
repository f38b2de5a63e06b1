"""E6: the MPEG2 video decoder case study (Section 4.1).

Claims: decoders tuned to 16 Mbit; PAL frame 4.75 Mbit / NTSC 3.96 Mbit
in 4:2:0; about 3 Mbit saved in the output buffer at the expense of
doubling the decoding-pipeline throughput and the motion-compensation
bandwidth; three 4-Mbit memories insufficient — and if they existed,
they could not deliver the bandwidth.
"""

from __future__ import annotations

from repro.apps.mpeg2 import DecoderVariant, MPEG2MemoryBudget
from repro.apps.video import NTSC, PAL
from repro.reporting.report import ExperimentReport
from repro.reporting.tables import Table
from repro.units import MBIT


def run() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="E6",
        title="MPEG2 decoder memory budget and bandwidth",
        paper_section="Section 4.1",
    )
    report.check(
        claim="PAL 4:2:0 frame size",
        paper_value="4.75 Mbit",
        measured=f"{PAL.frame_mbit:.3f} Mbit",
        holds=abs(PAL.frame_mbit - 4.75) < 0.01,
    )
    report.check(
        claim="NTSC 4:2:0 frame size",
        paper_value="3.96 Mbit",
        measured=f"{NTSC.frame_mbit:.3f} Mbit",
        holds=abs(NTSC.frame_mbit - 3.96) < 0.01,
    )
    standard = MPEG2MemoryBudget()
    reduced = MPEG2MemoryBudget(variant=DecoderVariant.REDUCED_OUTPUT)
    report.check(
        claim="decoder budget fits the 16-Mbit commodity size",
        paper_value="16 Mbit sufficient (standard was bent for it)",
        measured=f"{standard.total_mbit:.2f} Mbit",
        holds=standard.fits_16_mbit and standard.total_mbit > 15,
    )
    report.check(
        claim="about 3 Mbit saved in the output buffer",
        paper_value="~3 Mbit",
        measured=f"{standard.total_mbit - reduced.total_mbit:.2f} Mbit",
        holds=abs((standard.total_bits - reduced.total_bits) / MBIT - 3.0)
        < 0.3,
    )
    report.check(
        claim="saving costs 2x decoding-pipeline throughput",
        paper_value="2x",
        measured=f"{reduced.pipeline_throughput_factor():.1f}x",
        holds=reduced.pipeline_throughput_factor() == 2.0,
    )
    mc_ratio = (
        reduced.motion_compensation_read_bandwidth()
        / standard.motion_compensation_read_bandwidth()
    )
    report.check(
        claim="saving doubles the motion-compensation bandwidth",
        paper_value="2x (for the B-picture share)",
        measured=f"{mc_ratio:.2f}x total MC (B-picture share exactly 2x)",
        holds=1.7 <= mc_ratio <= 2.0,
    )
    report.check(
        claim="three 4-Mbit memories are insufficient",
        paper_value="insufficient",
        measured=(
            f"12 Mbit < {standard.total_mbit:.2f} Mbit (standard) and "
            f"< {reduced.total_mbit:.2f} Mbit (reduced)"
        ),
        holds=not standard.fits_bits(12 * MBIT)
        and not reduced.fits_bits(12 * MBIT),
    )
    # Bandwidth angle: a single 16-bit commodity part cannot sustain the
    # reduced variant's traffic at realistic efficiency.
    single_x16_peak = 16 * 100e6
    needed = reduced.total_bandwidth_bits_per_s()
    report.check(
        claim="small commodity memories could not provide the bandwidth",
        paper_value="would not be able to provide minimum bandwidth",
        measured=(
            f"reduced variant needs {needed / 1e6:.0f} Mbit/s; one x16 "
            f"part peaks at {single_x16_peak / 1e6:.0f} Mbit/s "
            f"({needed / single_x16_peak:.0%} utilization required)"
        ),
        holds=needed > 0.5 * single_x16_peak,
        note="sustained efficiency of ~60% makes a single part "
        "infeasible; see E5",
    )
    return report


def render_table() -> str:
    table = Table(
        title="E6: MPEG2 decoder memory blocks (PAL, 4:2:0)",
        columns=["block", "standard", "reduced-output"],
    )
    standard = MPEG2MemoryBudget()
    reduced = MPEG2MemoryBudget(variant=DecoderVariant.REDUCED_OUTPUT)
    rows = [
        ("input (VBV) buffer", "input_buffer_bits"),
        ("reference frames (2x)", "reference_frames_bits"),
        ("output buffer", "output_buffer_bits"),
        ("total", "total_bits"),
    ]
    for label, attribute in rows:
        table.add_row(
            label,
            f"{getattr(standard, attribute) / MBIT:.2f} Mbit",
            f"{getattr(reduced, attribute) / MBIT:.2f} Mbit",
        )
    table.add_row(
        "total bandwidth",
        f"{standard.total_bandwidth_bits_per_s() / 1e6:.0f} Mbit/s",
        f"{reduced.total_bandwidth_bits_per_s() / 1e6:.0f} Mbit/s",
    )
    table.add_row(
        "pipeline throughput",
        f"{standard.pipeline_throughput_factor():.0f}x",
        f"{reduced.pipeline_throughput_factor():.0f}x",
    )
    return table.render()
