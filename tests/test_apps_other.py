"""Tests for repro.apps.markets: the Section 2 advisability rules."""

import pytest

from repro.apps.markets import (
    MarketSegment,
    SEGMENTS,
    advisability_score,
    rank_segments,
)
from repro.errors import ConfigurationError


class TestAdvisability:
    def test_upgrade_path_vetoes(self):
        # "It is unlikely that edram will capture the PC market for main
        # memory, as the need for flexibility and an upgrade path is too
        # strong."
        score = advisability_score(
            volume_per_year=100_000_000,
            product_lifetime_years=5.0,
            memory_mbit=64.0,
            required_bandwidth_gbyte_per_s=0.8,
            portable=False,
            needs_upgrade_path=True,
        )
        assert score == 0.0

    def test_unknown_memory_vetoes(self):
        score = advisability_score(
            volume_per_year=10_000_000,
            product_lifetime_years=3.0,
            memory_mbit=16.0,
            required_bandwidth_gbyte_per_s=1.0,
            portable=True,
            needs_upgrade_path=False,
            memory_known_at_design_time=False,
        )
        assert score == 0.0

    def test_laptop_graphics_scores_high(self):
        score = advisability_score(
            volume_per_year=5_000_000,
            product_lifetime_years=2.0,
            memory_mbit=16.0,
            required_bandwidth_gbyte_per_s=1.5,
            portable=True,
            needs_upgrade_path=False,
        )
        assert score >= 0.7

    def test_portable_bonus(self):
        kwargs = dict(
            volume_per_year=5_000_000,
            product_lifetime_years=2.0,
            memory_mbit=16.0,
            required_bandwidth_gbyte_per_s=1.5,
            needs_upgrade_path=False,
        )
        assert advisability_score(
            portable=True, **kwargs
        ) > advisability_score(portable=False, **kwargs)

    def test_pc_main_memory_ranks_last(self):
        ranked = rank_segments()
        assert ranked[-1][0].name == "PC main memory"
        assert ranked[-1][1] == 0.0

    def test_all_paper_segments_present(self):
        names = {segment.name for segment in SEGMENTS}
        assert "network switch" in names
        assert "hard-disk controller" in names
        assert "printer controller" in names

    def test_segment_validation(self):
        with pytest.raises(ConfigurationError):
            MarketSegment(
                name="bad",
                memory_mbit_range=(8, 4),
                interface_width_range=(16, 64),
                volume_per_year=1,
                portable=False,
                needs_upgrade_path=False,
                driver="cost",
            )
