"""Tests for repro.dft.compression."""

import pytest

from repro.dft.compression import SignatureCompressor
from repro.dft.march import MARCH_C_MINUS, MATS_PLUS
from repro.errors import ConfigurationError
from repro.units import MBIT


class TestSignatureCompression:
    def test_huge_compression_ratio(self):
        # Section 6: compression reduces the off-chip interface need;
        # for a 64-Mbit module the ratio is astronomic.
        compressor = SignatureCompressor()
        ratio = compressor.compression_ratio(MARCH_C_MINUS, 64 * MBIT)
        assert ratio > 1e6

    def test_offchip_volume_independent_of_memory_size(self):
        compressor = SignatureCompressor()
        small = compressor.offchip_bits(MARCH_C_MINUS, 4 * MBIT)
        large = compressor.offchip_bits(MARCH_C_MINUS, 128 * MBIT)
        assert small == large

    def test_uncompressed_scales_with_memory(self):
        compressor = SignatureCompressor()
        small = compressor.offchip_bits_uncompressed(
            MARCH_C_MINUS, 4 * MBIT
        )
        large = compressor.offchip_bits_uncompressed(
            MARCH_C_MINUS, 8 * MBIT
        )
        assert large == 2 * small

    def test_aliasing_negligible_at_32_bits(self):
        assert SignatureCompressor(
            signature_bits=32
        ).aliasing_probability() < 1e-9

    def test_aliasing_vs_width_tradeoff(self):
        narrow = SignatureCompressor(signature_bits=8)
        wide = SignatureCompressor(signature_bits=32)
        assert (
            narrow.aliasing_probability() > wide.aliasing_probability()
        )
        assert narrow.offchip_bits(MATS_PLUS, MBIT) < wide.offchip_bits(
            MATS_PLUS, MBIT
        )

    def test_readout_cycles(self):
        compressor = SignatureCompressor(
            signature_bits=32, readout_width_bits=4
        )
        # 6 elements x 8 shift cycles.
        assert compressor.readout_cycles(MARCH_C_MINUS) == 48

    def test_no_fail_bitmap(self):
        # Repair allocation needs bitmaps: compression is for post-fuse.
        assert not SignatureCompressor().preserves_fail_bitmap()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SignatureCompressor(signature_bits=2)


