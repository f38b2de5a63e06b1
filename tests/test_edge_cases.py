"""Edge-case tests across modules: clamps, boundaries, degenerate inputs."""

import pytest

from repro.core.evaluator import Evaluator
from repro.core.requirements import ApplicationRequirements
from repro.dram.edram import EDRAMMacro
from repro.errors import ConfigurationError
from repro.reporting.tables import format_bits, format_si
from repro.units import KBIT, MBIT


class TestEvaluatorClamps:
    def test_oversubscribed_latency_clamped(self):
        # Demanding more than the macro sustains: utilization clamps at
        # the queueing knee instead of diverging.
        macro = EDRAMMacro.build(size_bits=8 * MBIT, width=16, banks=1)
        requirements = ApplicationRequirements(
            name="over",
            capacity_bits=8 * MBIT,
            sustained_bandwidth_bits_per_s=100e9,
            locality=0.0,
        )
        metrics = Evaluator().evaluate_macro(macro, requirements)
        assert metrics.mean_latency_ns < 1e4  # finite, bounded

    def test_negative_utilization_rejected(self):
        with pytest.raises(ConfigurationError):
            Evaluator()._loaded_latency_ns(50.0, -0.1)

    def test_zero_utilization_base_latency(self):
        assert Evaluator()._loaded_latency_ns(50.0, 0.0) == pytest.approx(
            50.0
        )


class TestSmallestMacro:
    def test_one_block_module(self):
        macro = EDRAMMacro.build(
            size_bits=256 * KBIT, width=16, banks=1, page_bits=1024
        )
        assert macro.organization.n_rows == 256
        device = macro.device()
        assert device.capacity_bits == 256 * KBIT

    def test_largest_module(self):
        macro = EDRAMMacro.build(
            size_bits=128 * MBIT, width=512, banks=16, page_bits=8192
        )
        assert macro.peak_bandwidth_bits_per_s / 8e9 == pytest.approx(
            9.14, abs=0.05
        )
        assert macro.area_mm2() > 120


class TestFormatters:
    def test_format_si_negative(self):
        assert format_si(-2.5e9, "B/s") == "-2.50 GB/s"

    def test_format_si_tiny(self):
        assert "n" in format_si(3e-9, "J")

    def test_format_bits_gbit(self):
        assert format_bits(2 * 2**30) == "2.00 Gbit"

    def test_format_bits_kbit(self):
        assert format_bits(256 * KBIT) == "256.00 Kbit"


class TestRequestValidation:
    def test_latency_before_completion_raises(self):
        from repro.controller.request import Request

        request = Request(
            request_id=0,
            client="c",
            address=0,
            is_read=True,
            created_cycle=0,
        )
        with pytest.raises(ConfigurationError):
            _ = request.latency_cycles
        with pytest.raises(ConfigurationError):
            _ = request.queueing_cycles

    def test_negative_fields_rejected(self):
        from repro.controller.request import Request

        with pytest.raises(ConfigurationError):
            Request(
                request_id=-1,
                client="c",
                address=0,
                is_read=True,
                created_cycle=0,
            )


class TestMarketsEdges:
    def test_rank_includes_all_segments(self):
        from repro.apps.markets import SEGMENTS, rank_segments

        ranked = rank_segments()
        assert len(ranked) == len(SEGMENTS)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_advisability_bounds(self):
        from repro.apps.markets import advisability_score

        maxed = advisability_score(
            volume_per_year=1_000_000_000,
            product_lifetime_years=10.0,
            memory_mbit=128.0,
            required_bandwidth_gbyte_per_s=9.0,
            portable=True,
            needs_upgrade_path=False,
        )
        assert maxed <= 1.0


class TestOrganizationBoundaries:
    def test_single_row_bank(self):
        from repro.dram.organizations import AddressMapping, Organization

        organization = Organization(
            n_banks=2, n_rows=1, page_bits=1024, word_bits=16
        )
        mapping = AddressMapping(organization)
        for address in range(organization.total_words):
            decoded = mapping.decode(address)
            assert decoded.row == 0
            assert mapping.encode(decoded) == address

    def test_word_equals_page(self):
        from repro.dram.organizations import Organization

        organization = Organization(
            n_banks=1, n_rows=4, page_bits=64, word_bits=64
        )
        assert organization.columns_per_page == 1
