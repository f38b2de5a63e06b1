"""Tests for repro.power.system."""

import pytest

from repro.errors import ConfigurationError
from repro.power.idd import EDRAM_IDD, PC100_IDD
from repro.power.interface import OFF_CHIP_BUS, ON_CHIP_BUS
from repro.power.system import (
    SystemPowerModel,
    discrete_vs_embedded_power,
)


class TestPaperPowerClaim:
    """E1: 'about ten times the power' (Section 1)."""

    def test_ratio_about_ten(self):
        discrete, embedded, ratio = discrete_vs_embedded_power()
        assert 8.0 <= ratio <= 13.0

    def test_discrete_needs_sixteen_chips(self):
        discrete, _, _ = discrete_vs_embedded_power()
        assert discrete.n_chips == 16

    def test_embedded_single_macro(self):
        _, embedded, _ = discrete_vs_embedded_power()
        assert embedded.n_chips == 1

    def test_io_dominates_discrete(self):
        discrete, _, _ = discrete_vs_embedded_power()
        assert discrete.interface_w > 0.3 * discrete.total_w

    def test_io_small_in_embedded(self):
        _, embedded, _ = discrete_vs_embedded_power()
        assert embedded.interface_w < 0.5 * embedded.total_w

    def test_totals_compose(self):
        discrete, embedded, ratio = discrete_vs_embedded_power()
        assert discrete.total_w == pytest.approx(
            discrete.core_w + discrete.interface_w
        )
        assert ratio == pytest.approx(discrete.total_w / embedded.total_w)

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            discrete_vs_embedded_power(bandwidth_bytes_per_s=0.0)


class TestSystemPowerModel:
    def test_chips_for_bus(self):
        model = SystemPowerModel(
            interface=OFF_CHIP_BUS,
            idd=PC100_IDD,
            device_width_bits=16,
            frequency_hz=100e6,
        )
        assert model.chips_for_bus(256) == 16
        assert model.chips_for_bus(17) == 2

    def test_power_monotone_in_width(self):
        model = SystemPowerModel(
            interface=OFF_CHIP_BUS,
            idd=PC100_IDD,
            device_width_bits=16,
            frequency_hz=100e6,
        )
        assert model.power(256).total_w > model.power(64).total_w

    def test_idle_utilization_cheaper(self):
        model = SystemPowerModel(
            interface=OFF_CHIP_BUS,
            idd=PC100_IDD,
            device_width_bits=16,
            frequency_hz=100e6,
        )
        assert (
            model.power(64, utilization=0.2).total_w
            < model.power(64, utilization=1.0).total_w
        )

    def test_peak_bandwidth(self):
        model = SystemPowerModel(
            interface=ON_CHIP_BUS,
            idd=EDRAM_IDD,
            device_width_bits=256,
            frequency_hz=143e6,
        )
        assert model.peak_bandwidth_bits_per_s(256) == pytest.approx(
            256 * 143e6
        )


