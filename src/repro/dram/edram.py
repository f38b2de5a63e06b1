"""eDRAM macro generator: the Siemens flexible concept (paper Section 5).

Key features of the concept, all enforced or produced here:

* two building-block sizes, 256 Kbit and 1 Mbit;
* memory modules constructed with these granularities;
* embedded memory sizes up to at least 128 Mbit;
* interface widths ranging from 16 to 512 bits per module;
* flexibility in the number of banks as well as the page length;
* different redundancy levels;
* cycle times better than 7 ns (clock frequencies better than 143 MHz);
* a maximum bandwidth per module of about 9 Gbyte/s
  (512 bit x 143 MHz / 8 = 9.15 GB/s);
* area efficiency of about 1 Mbit/mm^2 for modules of 8-16 Mbit upwards.

The generator validates a requested configuration against the concept
rules, builds the corresponding :class:`~repro.dram.device.DRAMDevice`
organization, and reports area (via :mod:`repro.area.macro`), peak
bandwidth and fill frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.units import KBIT, MBIT, fill_frequency, is_power_of_two
from repro.dram.organizations import Organization
from repro.dram.timing import TimingParameters, EDRAM_TIMING
from repro.dram.device import DRAMDevice
from repro.area.macro import MacroAreaModel
from repro.area.process import BaseProcess, DRAM_BASED_025


@dataclass(frozen=True)
class SiemensConceptRules:
    """Constructibility rules of the flexible eDRAM concept.

    Attributes:
        block_sizes_bits: Allowed building-block sizes.
        min_module_bits: Smallest constructible module.
        max_module_bits: Largest supported embedded memory.
        min_width: Narrowest module interface.
        max_width: Widest module interface.
        max_banks: Most banks a module supports.
        allowed_page_bits: Selectable page lengths.
        cycle_time_ns: Guaranteed cycle time.
        redundancy_levels: Selectable spare (row+column) counts per module.
    """

    block_sizes_bits: tuple[int, ...] = (256 * KBIT, MBIT)
    min_module_bits: int = 256 * KBIT
    max_module_bits: int = 128 * MBIT
    min_width: int = 16
    max_width: int = 512
    max_banks: int = 16
    allowed_page_bits: tuple[int, ...] = (1024, 2048, 4096, 8192)
    cycle_time_ns: float = 7.0
    redundancy_levels: tuple[int, ...] = (0, 2, 4, 8)

    def __post_init__(self) -> None:
        if not self.block_sizes_bits:
            raise ConfigurationError("need at least one block size")
        if self.min_module_bits > self.max_module_bits:
            raise ConfigurationError("min module exceeds max module")
        if self.min_width > self.max_width:
            raise ConfigurationError("min width exceeds max width")

    @property
    def max_clock_hz(self) -> float:
        return 1e9 / self.cycle_time_ns

    @property
    def max_module_bandwidth_bits_per_s(self) -> float:
        """The "about 9 Gbyte/s" headline figure."""
        return self.max_width * self.max_clock_hz

    def constructible_sizes(self, up_to_bits: int | None = None) -> list[int]:
        """All module sizes constructible from the building blocks.

        Sizes are non-negative integer combinations of the block sizes;
        with 256 Kbit and 1 Mbit blocks that is every multiple of
        256 Kbit, which is exactly the granularity claim of Section 5.
        """
        limit = up_to_bits if up_to_bits is not None else self.max_module_bits
        if limit < self.min_module_bits:
            return []
        step = min(self.block_sizes_bits)
        sizes = []
        size = self.min_module_bits
        while size <= min(limit, self.max_module_bits):
            sizes.append(size)
            size += step
        return sizes

    def validate(
        self, size_bits: int, width: int, banks: int, page_bits: int
    ) -> None:
        """Raise ConfigurationError if the module violates the concept."""
        step = min(self.block_sizes_bits)
        if size_bits % step != 0:
            raise ConfigurationError(
                f"module size {size_bits} is not a multiple of the "
                f"{step}-bit building block"
            )
        if not self.min_module_bits <= size_bits <= self.max_module_bits:
            raise ConfigurationError(
                f"module size {size_bits / MBIT:.2f} Mbit outside "
                f"[{self.min_module_bits / MBIT:.2f}, "
                f"{self.max_module_bits / MBIT:.0f}] Mbit"
            )
        if not self.min_width <= width <= self.max_width:
            raise ConfigurationError(
                f"interface width {width} outside "
                f"[{self.min_width}, {self.max_width}]"
            )
        if not is_power_of_two(width):
            raise ConfigurationError(f"width must be a power of two: {width}")
        if not is_power_of_two(banks) or banks > self.max_banks:
            raise ConfigurationError(
                f"banks must be a power of two <= {self.max_banks}: {banks}"
            )
        if page_bits not in self.allowed_page_bits:
            raise ConfigurationError(
                f"page length {page_bits} not in {self.allowed_page_bits}"
            )
        if width > page_bits:
            raise ConfigurationError(
                f"width {width} exceeds page length {page_bits}"
            )
        rows_per_bank = size_bits // (banks * page_bits)
        if rows_per_bank < 1 or size_bits % (banks * page_bits) != 0:
            raise ConfigurationError(
                f"{size_bits} bits cannot be divided into {banks} banks of "
                f"{page_bits}-bit pages"
            )


#: The concept as published.
SIEMENS_CONCEPT = SiemensConceptRules()


def _macro_area_mm2(
    size_bits: int, width: int, redundancy_spares: int, process: BaseProcess
) -> float:
    """Macro area from the process's macro model; :meth:`EDRAMMacro.area_mm2`
    and the batch kernel both call this one copy."""
    model = MacroAreaModel(
        process=process, redundancy_area_fraction=0.005 * redundancy_spares
    )
    return model.total_area_mm2(size_bits, width)


@dataclass(frozen=True)
class EDRAMMacro:
    """A generated embedded DRAM module.

    Use :meth:`build` to construct a validated macro; the raw constructor
    performs the same validation.

    Attributes:
        size_bits: Module capacity (multiple of the building block).
        width: Interface width in bits.
        banks: Number of banks.
        page_bits: Page length in bits.
        rules: Concept rules the module was validated against.
        timing: Command timing (defaults to the 7 ns concept timing).
        process: Base process used for area figures.
        redundancy_spares: Spare rows+columns selected for yield tuning.
    """

    size_bits: int
    width: int
    banks: int
    page_bits: int
    rules: SiemensConceptRules = SIEMENS_CONCEPT
    timing: TimingParameters = EDRAM_TIMING
    process: BaseProcess = DRAM_BASED_025
    redundancy_spares: int = 4

    def __post_init__(self) -> None:
        self.rules.validate(
            self.size_bits, self.width, self.banks, self.page_bits
        )
        if self.redundancy_spares not in self.rules.redundancy_levels:
            raise ConfigurationError(
                f"redundancy level {self.redundancy_spares} not offered "
                f"(choose from {self.rules.redundancy_levels})"
            )
        if self.timing.clock_period_ns > self.rules.cycle_time_ns + 1e-9:
            raise ConfigurationError(
                f"timing clock {self.timing.clock_period_ns} ns exceeds the "
                f"concept's {self.rules.cycle_time_ns} ns cycle time"
            )

    @classmethod
    def build(
        cls,
        size_bits: int,
        width: int,
        banks: int = 4,
        page_bits: int = 2048,
        **kwargs: object,
    ) -> "EDRAMMacro":
        """Construct and validate a macro (convenience wrapper)."""
        return cls(
            size_bits=size_bits,
            width=width,
            banks=banks,
            page_bits=page_bits,
            **kwargs,  # type: ignore[arg-type]
        )

    @cached_property
    def organization(self) -> Organization:
        # cached_property writes straight into __dict__, which the
        # frozen dataclass permits; hash/eq still use the declared
        # fields only.
        return Organization(
            n_banks=self.banks,
            n_rows=self.size_bits // (self.banks * self.page_bits),
            page_bits=self.page_bits,
            word_bits=self.width,
        )

    def device(self, name: str = "edram") -> DRAMDevice:
        """Instantiate the cycle-level device model for this macro."""
        return DRAMDevice(
            organization=self.organization, timing=self.timing, name=name
        )

    @property
    def peak_bandwidth_bits_per_s(self) -> float:
        return self.width * self.timing.clock_hz

    @property
    def fill_frequency_hz(self) -> float:
        """Peak fill frequency (Section 1 footnote 2)."""
        return fill_frequency(self.peak_bandwidth_bits_per_s, self.size_bits)

    def area_mm2(self) -> float:
        """Macro area from the process's macro model (memoized)."""
        return self._area_mm2

    @cached_property
    def _area_mm2(self) -> float:
        return _macro_area_mm2(
            self.size_bits, self.width, self.redundancy_spares, self.process
        )

    def area_efficiency_mbit_per_mm2(self) -> float:
        return (self.size_bits / MBIT) / self.area_mm2()
