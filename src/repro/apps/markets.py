"""Market segments and the Section 2 advisability rules of thumb.

"It is not possible to give a simple formula for the advisability of
edram in a specific project.  However, some rules of thumb can be given:
the product volume and product lifetime are usually high; either the
memory content is high enough to justify the higher DRAM process costs,
or edram is required for bandwidth or other reasons; other things being
equal, edram will find its way first into portable applications."

:func:`advisability_score` encodes exactly those rules as a transparent
weighted checklist, and :data:`SEGMENTS` records the paper's market
survey (graphics, disk, printer, switches, PC main memory) with its
stated characteristics, including the prediction that eDRAM will *not*
capture PC main memory ("the need for flexibility and an upgrade path is
too strong").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MarketSegment:
    """One application market from the paper's survey.

    Attributes:
        name: Segment name.
        memory_mbit_range: (min, max) memory sizes required.
        interface_width_range: (min, max) interface widths in bits.
        volume_per_year: Typical unit volume.
        portable: Battery-powered segment.
        needs_upgrade_path: Whether field memory expansion is expected
            (the eDRAM killer).
        driver: What drives the choice: "cost", "bandwidth", "power".
    """

    name: str
    memory_mbit_range: tuple
    interface_width_range: tuple
    volume_per_year: int
    portable: bool
    needs_upgrade_path: bool
    driver: str

    def __post_init__(self) -> None:
        lo, hi = self.memory_mbit_range
        if not 0 < lo <= hi:
            raise ConfigurationError(f"{self.name}: bad memory range")
        wlo, whi = self.interface_width_range
        if not 0 < wlo <= whi:
            raise ConfigurationError(f"{self.name}: bad width range")
        if self.volume_per_year < 0:
            raise ConfigurationError(f"{self.name}: bad volume")
        if self.driver not in ("cost", "bandwidth", "power"):
            raise ConfigurationError(
                f"{self.name}: driver must be cost/bandwidth/power"
            )


#: The paper's market survey, Section 2.
SEGMENTS: tuple = (
    MarketSegment(
        name="3D graphics (laptop)",
        memory_mbit_range=(8, 32),
        interface_width_range=(128, 256),
        volume_per_year=5_000_000,
        portable=True,
        needs_upgrade_path=False,
        driver="power",
    ),
    MarketSegment(
        name="3D graphics (desktop/games)",
        memory_mbit_range=(8, 32),
        interface_width_range=(128, 512),
        volume_per_year=20_000_000,
        portable=False,
        needs_upgrade_path=False,
        driver="bandwidth",
    ),
    MarketSegment(
        name="hard-disk controller",
        memory_mbit_range=(2, 16),
        interface_width_range=(16, 64),
        volume_per_year=50_000_000,
        portable=False,
        needs_upgrade_path=False,
        driver="cost",
    ),
    MarketSegment(
        name="printer controller",
        memory_mbit_range=(4, 32),
        interface_width_range=(16, 64),
        volume_per_year=15_000_000,
        portable=False,
        needs_upgrade_path=False,
        driver="cost",
    ),
    MarketSegment(
        name="network switch",
        memory_mbit_range=(32, 128),
        interface_width_range=(256, 512),
        volume_per_year=500_000,
        portable=False,
        needs_upgrade_path=False,
        driver="bandwidth",
    ),
    MarketSegment(
        name="PC main memory",
        memory_mbit_range=(64, 512),
        interface_width_range=(64, 64),
        volume_per_year=100_000_000,
        portable=False,
        needs_upgrade_path=True,
        driver="cost",
    ),
)


def advisability_score(
    volume_per_year: int,
    product_lifetime_years: float,
    memory_mbit: float,
    required_bandwidth_gbyte_per_s: float,
    portable: bool,
    needs_upgrade_path: bool,
    memory_known_at_design_time: bool = True,
) -> float:
    """Section 2's rules of thumb as a transparent score in [0, 1].

    The score is a weighted checklist, not a regression — mirroring the
    paper's refusal to give "a simple formula" while still ordering
    projects sensibly.  An upgrade-path requirement or unknown memory
    size vetoes the project (score 0), exactly as the paper argues for
    PC main memory.

    Args:
        volume_per_year: Expected production volume.
        product_lifetime_years: Market lifetime of the product.
        memory_mbit: Embedded memory content.
        required_bandwidth_gbyte_per_s: Sustained bandwidth need.
        portable: Battery-powered product.
        needs_upgrade_path: Field memory expansion required.
        memory_known_at_design_time: The designer knows the exact
            requirement ("later extensions are not possible").
    """
    if volume_per_year < 0:
        raise ConfigurationError("volume must be >= 0")
    if product_lifetime_years <= 0:
        raise ConfigurationError("lifetime must be positive")
    if memory_mbit <= 0:
        raise ConfigurationError("memory content must be positive")
    if required_bandwidth_gbyte_per_s < 0:
        raise ConfigurationError("bandwidth must be >= 0")
    if needs_upgrade_path or not memory_known_at_design_time:
        return 0.0
    score = 0.0
    # High volume amortizes NRE and justifies a dedicated part.
    if volume_per_year >= 10_000_000:
        score += 0.30
    elif volume_per_year >= 1_000_000:
        score += 0.20
    elif volume_per_year >= 100_000:
        score += 0.10
    # Long lifetime mitigates second-sourcing and requalification risk.
    if product_lifetime_years >= 3:
        score += 0.15
    elif product_lifetime_years >= 1.5:
        score += 0.08
    # Memory content high enough to justify DRAM process costs...
    if memory_mbit >= 16:
        score += 0.25
    elif memory_mbit >= 4:
        score += 0.15
    # ...or eDRAM is required for bandwidth reasons.
    if required_bandwidth_gbyte_per_s >= 1.0:
        score += 0.20
    elif required_bandwidth_gbyte_per_s >= 0.4:
        score += 0.10
    # Portable applications benefit first (power).
    if portable:
        score += 0.10
    return min(1.0, score)


@dataclass(frozen=True)
class MarketForecast:
    """The paper's eDRAM market forecast.

    Section 2: the eDRAM market was "estimated at [several hundred] $m
    in 1997, rising to 4-8bn in 2001".  Growing a few-hundred-million
    1997 market to $4-8bn by 2001 requires ~70-100% compound annual
    growth; the forecast object makes that arithmetic explicit and
    checkable.

    Attributes:
        base_year: Anchor year (1997).
        base_value_usd: Market size at the anchor.
        annual_growth: Compound annual growth rate.
    """

    base_year: int = 1997
    base_value_usd: float = 500e6
    annual_growth: float = 0.85

    def __post_init__(self) -> None:
        if self.base_value_usd <= 0:
            raise ConfigurationError("market size must be positive")
        if self.annual_growth <= -1:
            raise ConfigurationError("growth must be > -100%/yr")

    def value_usd(self, year: int) -> float:
        """Forecast market size at ``year``."""
        return self.base_value_usd * (1 + self.annual_growth) ** (
            year - self.base_year
        )

    def within_paper_range_2001(self) -> bool:
        """Whether the 2001 forecast lands in the paper's $4-8bn band."""
        forecast = self.value_usd(2001)
        return 4e9 <= forecast <= 8e9


def rank_segments(segments: tuple = SEGMENTS) -> list:
    """Rank the paper's segments by advisability (highest first)."""
    ranked = []
    for segment in segments:
        lo, hi = segment.memory_mbit_range
        score = advisability_score(
            volume_per_year=segment.volume_per_year,
            product_lifetime_years=2.0,
            memory_mbit=(lo + hi) / 2,
            required_bandwidth_gbyte_per_s=(
                1.5 if segment.driver == "bandwidth" else 0.3
            ),
            portable=segment.portable,
            needs_upgrade_path=segment.needs_upgrade_path,
        )
        ranked.append((segment, score))
    ranked.sort(key=lambda pair: pair[1], reverse=True)
    return ranked
