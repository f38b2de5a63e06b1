"""Tests for repro.dram.edram: the Siemens flexible concept (E8)."""

import dataclasses
import pickle

import pytest

from repro.dram.edram import (
    EDRAMMacro,
    SIEMENS_CONCEPT,
    SiemensConceptRules,
)
from repro.errors import ConfigurationError
from repro.units import KBIT, MBIT


class TestConceptHeadlines:
    """Section 5's bullet list, as assertions."""

    def test_building_blocks(self):
        assert set(SIEMENS_CONCEPT.block_sizes_bits) == {256 * KBIT, MBIT}

    def test_max_module(self):
        assert SIEMENS_CONCEPT.max_module_bits == 128 * MBIT

    def test_width_range(self):
        assert SIEMENS_CONCEPT.min_width == 16
        assert SIEMENS_CONCEPT.max_width == 512

    def test_clock_better_than_143mhz(self):
        assert SIEMENS_CONCEPT.max_clock_hz >= 142.8e6

    def test_nine_gbyte_per_s(self):
        # 512 bits x 143 MHz / 8 = "about 9 Gbyte/s".
        gbs = SIEMENS_CONCEPT.max_module_bandwidth_bits_per_s / 8e9
        assert gbs == pytest.approx(9.14, abs=0.1)

    def test_constructible_granularity(self):
        sizes = SIEMENS_CONCEPT.constructible_sizes(up_to_bits=2 * MBIT)
        assert sizes[0] == 256 * KBIT
        diffs = {b - a for a, b in zip(sizes, sizes[1:])}
        assert diffs == {256 * KBIT}


class TestMacroConstruction:
    def test_valid_macro(self):
        macro = EDRAMMacro.build(size_bits=16 * MBIT, width=256)
        assert macro.organization.capacity_bits == 16 * MBIT
        assert macro.peak_bandwidth_bits_per_s / 8e9 == pytest.approx(
            4.57, abs=0.05
        )

    def test_frame_sized_module(self):
        # A module snapped to a PAL frame (4.75 Mbit) at 256-Kbit
        # granularity: 19 blocks of 256 Kbit = exactly 4.75 Mbit.
        size = 19 * 256 * KBIT
        macro = EDRAMMacro.build(
            size_bits=size, width=64, banks=1, page_bits=2048
        )
        assert macro.size_bits / MBIT == pytest.approx(4.75)

    def test_fill_frequency_example(self):
        # Section 1: a 4-Mbit eDRAM with a 256-bit interface.
        macro = EDRAMMacro.build(size_bits=4 * MBIT, width=256)
        assert macro.fill_frequency_hz == pytest.approx(8726.8, rel=1e-3)

    def test_area_efficiency_about_one(self):
        macro = EDRAMMacro.build(size_bits=16 * MBIT, width=256)
        assert 0.85 <= macro.area_efficiency_mbit_per_mm2() <= 1.05

    def test_device_instantiation(self):
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=128, banks=8)
        device = macro.device()
        assert device.organization.n_banks == 8
        assert device.timing.clock_period_ns == pytest.approx(7.0)

    def test_more_redundancy_more_area(self):
        lean = EDRAMMacro.build(
            size_bits=16 * MBIT, width=128, redundancy_spares=0
        )
        fat = EDRAMMacro.build(
            size_bits=16 * MBIT, width=128, redundancy_spares=8
        )
        assert fat.area_mm2() > lean.area_mm2()


class TestMacroHash:
    """The generated frozen-dataclass hash and equality: declared fields
    only, never cached state."""

    def test_hash_is_the_declared_fields_tuple(self):
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=64, banks=8)
        declared = tuple(
            getattr(macro, f.name) for f in dataclasses.fields(macro)
        )
        assert hash(macro) == hash(declared)
        assert hash(macro) == hash(declared)  # the cached value

    def test_equality_uses_declared_fields_only(self):
        hashed = EDRAMMacro.build(size_bits=8 * MBIT, width=64)
        fresh = EDRAMMacro.build(size_bits=8 * MBIT, width=64)
        hash(hashed)
        hashed.organization  # more cached, non-field state
        assert hashed == fresh and fresh == hashed
        assert hashed != EDRAMMacro.build(size_bits=8 * MBIT, width=128)
        assert len({hashed, fresh}) == 1

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        # A copy in another process keys the same dict slot.
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=64)
        macro.area_mm2()  # cached state must not travel or matter
        copy = pickle.loads(pickle.dumps(macro))
        assert copy == macro and hash(copy) == hash(macro)
        assert copy.area_mm2() == macro.area_mm2()


class TestConceptValidation:
    def test_size_not_block_multiple(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(size_bits=MBIT + 1, width=64)

    def test_size_too_large(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(size_bits=256 * MBIT, width=64)

    def test_width_out_of_range(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(size_bits=8 * MBIT, width=8)
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(size_bits=8 * MBIT, width=1024)

    def test_width_not_power_of_two(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(size_bits=8 * MBIT, width=96)

    def test_too_many_banks(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(size_bits=8 * MBIT, width=64, banks=32)

    def test_bad_page_length(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(
                size_bits=8 * MBIT, width=64, page_bits=3000
            )

    def test_width_exceeding_page(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(
                size_bits=8 * MBIT, width=512, banks=4, page_bits=256
            )

    def test_odd_sizes_bank_cleanly(self):
        # Any block-multiple size divides into the offered bank/page
        # combinations: 4.75 Mbit at 16 banks of 8192-bit pages gives
        # 38 rows per bank.
        macro = EDRAMMacro.build(
            size_bits=19 * 256 * KBIT, width=16, banks=16, page_bits=8192
        )
        assert macro.organization.n_rows == 38

    def test_unoffered_redundancy_level(self):
        with pytest.raises(ConfigurationError):
            EDRAMMacro.build(
                size_bits=8 * MBIT, width=64, redundancy_spares=3
            )

    def test_rules_sanity(self):
        with pytest.raises(ConfigurationError):
            SiemensConceptRules(min_width=512, max_width=16)
