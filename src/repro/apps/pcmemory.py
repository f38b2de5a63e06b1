"""PC main-memory granularity: the Section 4 mismatch.

"The size of PC memory systems has grown by only half the rate of single
DRAM devices for many years.  As the growth of bandwidth requirements
has kept pace with that of the memory systems, the interface width of
DRAMs should thus have been growing as fast as the size of single DRAM
devices.  This has not happened for packaging reasons.  Instead
granularity has decreased, often inducing unnecessary but unavoidable
extra memory."

The model: a PC memory bus of fixed width (64 bits in the era) must be
populated by whole devices; the minimum upgrade increment is therefore
``bus_width / device_width * device_capacity``.  As device capacity
quadruples per generation while device width only doubles at best, the
increment grows relative to the system size — the "unnecessary but
unavoidable extra memory".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import ceil_div


@dataclass(frozen=True)
class PCGeneration:
    """One PC-platform memory generation.

    Attributes:
        year: Platform year.
        device_capacity_mbit: Mainstream DRAM device capacity.
        device_width_bits: Mainstream device data width.
        bus_width_bits: Platform memory-bus width.
        typical_system_mbyte: Typical installed memory.
    """

    year: int
    device_capacity_mbit: float
    device_width_bits: int
    bus_width_bits: int
    typical_system_mbyte: int

    def __post_init__(self) -> None:
        if self.device_capacity_mbit <= 0:
            raise ConfigurationError("device capacity must be positive")
        if self.device_width_bits <= 0 or self.bus_width_bits <= 0:
            raise ConfigurationError("widths must be positive")
        if self.bus_width_bits % self.device_width_bits != 0:
            raise ConfigurationError(
                "bus width must be a device-width multiple"
            )
        if self.typical_system_mbyte <= 0:
            raise ConfigurationError("system size must be positive")

    @property
    def devices_per_rank(self) -> int:
        """Devices needed to populate the bus once."""
        return self.bus_width_bits // self.device_width_bits

    @property
    def increment_mbit(self) -> int:
        """Minimum memory increment (one rank)."""
        return int(round(self.devices_per_rank * self.device_capacity_mbit))

    @property
    def increment_fraction_of_system(self) -> float:
        """Increment relative to the typical system — the granularity
        pain: small is flexible, large forces over-buying."""
        system_mbit = self.typical_system_mbyte * 8
        return self.increment_mbit / system_mbit


#: Mid-80s to late-90s PC platforms.  Device capacity grows 256x over
#: the span (59 %/yr) while typical installed memory grows 16x (26 %/yr)
#: — the paper's "half the rate" in compound-growth terms.  Device width
#: lags capacity badly (x1 -> x16 while capacity went 0.25 -> 64 Mbit),
#: which is exactly the packaging limitation the paper blames.
PC_GENERATIONS: tuple = (
    PCGeneration(
        year=1986,
        device_capacity_mbit=0.25,
        device_width_bits=1,
        bus_width_bits=16,
        typical_system_mbyte=1,
    ),
    PCGeneration(
        year=1990,
        device_capacity_mbit=1,
        device_width_bits=4,
        bus_width_bits=32,
        typical_system_mbyte=2,
    ),
    PCGeneration(
        year=1994,
        device_capacity_mbit=16,
        device_width_bits=8,
        bus_width_bits=64,
        typical_system_mbyte=8,
    ),
    PCGeneration(
        year=1998,
        device_capacity_mbit=64,
        device_width_bits=16,
        bus_width_bits=64,
        typical_system_mbyte=16,
    ),
)


def device_growth_rate(generations: tuple = PC_GENERATIONS) -> float:
    """Compound annual growth of device capacity."""
    first, last = generations[0], generations[-1]
    years = last.year - first.year
    if years <= 0:
        raise ConfigurationError("need increasing years")
    ratio = last.device_capacity_mbit / first.device_capacity_mbit
    return ratio ** (1.0 / years) - 1.0


def system_growth_rate(generations: tuple = PC_GENERATIONS) -> float:
    """Compound annual growth of installed system memory."""
    first, last = generations[0], generations[-1]
    years = last.year - first.year
    if years <= 0:
        raise ConfigurationError("need increasing years")
    ratio = last.typical_system_mbyte / first.typical_system_mbyte
    return ratio ** (1.0 / years) - 1.0


def forced_overprovision_mbit(
    wanted_mbit: float, generation: PCGeneration
) -> float:
    """Extra memory bought because upgrades come in whole ranks."""
    if wanted_mbit <= 0:
        raise ConfigurationError("wanted size must be positive")
    ranks = ceil_div(int(wanted_mbit), generation.increment_mbit)
    return ranks * generation.increment_mbit - wanted_mbit
