"""Tests for repro.dram.tracecheck."""

import pytest

from repro.dram.commands import Command, CommandType
from repro.dram.organizations import Organization
from repro.dram.timing import PC100_TIMING
from repro.dram.tracecheck import TraceChecker, streaming_read_trace
from repro.errors import ConfigurationError


def org():
    return Organization(n_banks=4, n_rows=64, page_bits=2048, word_bits=16)


def checker(**kwargs):
    return TraceChecker(organization=org(), timing=PC100_TIMING, **kwargs)


class TestCleanTraces:
    def test_generated_trace_is_clean(self):
        trace = streaming_read_trace(org(), PC100_TIMING, n_pages=4)
        report = checker().check(trace)
        assert report.clean, report.violations
        assert report.data_beats > 0
        assert report.command_counts["ACT"] == 4
        assert report.command_counts["PRE"] == 4

    def test_row_hits_counted(self):
        trace = streaming_read_trace(org(), PC100_TIMING, n_pages=2)
        report = checker().check(trace)
        reads = report.command_counts["RD"]
        # First read per page is the miss-fill; the rest are hits.
        assert report.row_hits == reads - 2

    def test_utilization_reasonable(self):
        trace = streaming_read_trace(org(), PC100_TIMING, n_pages=8)
        report = checker().check(trace)
        assert 0.5 < report.data_bus_utilization <= 1.0

    def test_summary_text(self):
        trace = streaming_read_trace(org(), PC100_TIMING, n_pages=1)
        assert "clean" in checker().check(trace).summary()

    def test_empty_trace(self):
        report = checker().check([])
        assert report.clean
        assert report.span_cycles == 0


class TestViolationDetection:
    def test_read_without_activate(self):
        trace = [
            Command(kind=CommandType.READ, cycle=0, bank=0, column=0)
        ]
        report = checker().check(trace)
        assert not report.clean
        assert report.violations[0].index == 0
        assert "illegal" in report.violations[0].reason

    def test_column_before_trcd(self):
        trace = [
            Command(kind=CommandType.ACTIVATE, cycle=0, bank=0, row=0),
            Command(kind=CommandType.READ, cycle=1, bank=0, column=0),
        ]
        report = checker().check(trace)
        assert len(report.violations) == 1
        assert report.violations[0].index == 1

    def test_time_disorder_flagged(self):
        trace = [
            Command(kind=CommandType.ACTIVATE, cycle=10, bank=0, row=0),
            Command(kind=CommandType.ACTIVATE, cycle=5, bank=1, row=0),
        ]
        report = checker().check(trace)
        assert any(
            "time-ordered" in violation.reason
            for violation in report.violations
        )

    def test_stop_at_first(self):
        trace = [
            Command(kind=CommandType.READ, cycle=0, bank=0, column=0),
            Command(kind=CommandType.WRITE, cycle=1, bank=1, column=0),
        ]
        report = checker(stop_at_first=True).check(trace)
        assert len(report.violations) == 1

    def test_checking_continues_past_violation(self):
        trace = [
            Command(kind=CommandType.READ, cycle=0, bank=0, column=0),
            Command(kind=CommandType.ACTIVATE, cycle=1, bank=0, row=3),
            Command(
                kind=CommandType.READ,
                cycle=1 + PC100_TIMING.t_rcd,
                bank=0,
                column=0,
            ),
        ]
        report = checker().check(trace)
        assert len(report.violations) == 1
        assert report.command_counts["RD"] == 1

    def test_generator_rejects_zero_pages(self):
        with pytest.raises(ConfigurationError):
            streaming_read_trace(org(), PC100_TIMING, n_pages=0)


