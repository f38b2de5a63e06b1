"""Tests for repro.dft.faults and repro.dft.march: observed detection."""

import pytest

from repro.dft.faults import (
    Fault,
    FaultKind,
    FaultyArray,
    inject_random_faults,
)
from repro.dft.march import (
    MARCH_B,
    MARCH_C_MINUS,
    MARCH_C_RETENTION,
    MATS_PLUS,
    MarchElement,
    MarchTest,
    Direction,
    retention_test_time_s,
)
from repro.errors import ConfigurationError


class TestFaultyArray:
    def test_clean_array_reads_zero(self):
        array = FaultyArray(rows=8, cols=8)
        assert array.read(0, 0) is False

    def test_write_read(self):
        array = FaultyArray(rows=8, cols=8)
        array.write(3, 4, True)
        assert array.read(3, 4) is True

    def test_stuck_at_zero(self):
        array = FaultyArray(rows=8, cols=8)
        array.inject(Fault(kind=FaultKind.STUCK_AT_0, row=1, col=1))
        array.write(1, 1, True)
        assert array.read(1, 1) is False

    def test_stuck_at_one(self):
        array = FaultyArray(rows=8, cols=8)
        array.inject(Fault(kind=FaultKind.STUCK_AT_1, row=2, col=2))
        assert array.read(2, 2) is True

    def test_transition_fault(self):
        array = FaultyArray(rows=8, cols=8)
        array.inject(Fault(kind=FaultKind.TRANSITION, row=0, col=5))
        array.write(0, 5, True)  # 0 -> 1 fails
        assert array.read(0, 5) is False
        # But the cell can be driven back to 0 from a 1 it never reached.
        array.write(0, 5, False)
        assert array.read(0, 5) is False

    def test_word_line_kills_row(self):
        array = FaultyArray(rows=4, cols=4)
        array.inject(Fault(kind=FaultKind.WORD_LINE, row=2, col=0))
        for col in range(4):
            array.write(2, col, True)
            assert array.read(2, col) is False

    def test_coupling_inverts_victim(self):
        array = FaultyArray(rows=8, cols=8)
        array.inject(
            Fault(
                kind=FaultKind.COUPLING_INV,
                row=1,
                col=1,
                aggressor=(0, 0),
            )
        )
        array.write(1, 1, False)
        array.write(0, 0, True)  # aggressor write flips victim
        assert array.read(1, 1) is True

    def test_retention_decay_on_pause(self):
        array = FaultyArray(rows=8, cols=8)
        array.inject(Fault(kind=FaultKind.RETENTION, row=0, col=0))
        array.write(0, 0, True)
        assert array.read(0, 0) is True
        array.pause(0.2)
        assert array.read(0, 0) is False

    def test_short_pause_no_decay(self):
        array = FaultyArray(rows=8, cols=8)
        array.inject(Fault(kind=FaultKind.RETENTION, row=0, col=0))
        array.write(0, 0, True)
        array.pause(0.01)
        assert array.read(0, 0) is True

    def test_ground_truth(self):
        array = FaultyArray(rows=4, cols=4)
        array.inject(Fault(kind=FaultKind.STUCK_AT_0, row=1, col=1))
        array.inject(Fault(kind=FaultKind.WORD_LINE, row=3, col=0))
        cells = array.faulty_cells()
        assert (1, 1) in cells
        assert all((3, c) in cells for c in range(4))

    def test_out_of_bounds(self):
        array = FaultyArray(rows=4, cols=4)
        with pytest.raises(ConfigurationError):
            array.read(4, 0)

    def test_coupling_needs_aggressor(self):
        with pytest.raises(ConfigurationError):
            Fault(kind=FaultKind.COUPLING_INV, row=0, col=0)


class TestMarchComplexity:
    def test_complexities(self):
        assert MATS_PLUS.ops_per_cell == 5
        assert MARCH_C_MINUS.ops_per_cell == 10
        assert MARCH_B.ops_per_cell == 17

    def test_operation_count(self):
        assert MARCH_C_MINUS.operation_count(1024) == 10240

    def test_bad_operation(self):
        with pytest.raises(ConfigurationError):
            MarchElement(Direction.UP, ("r2",))


class TestObservedDetection:
    def test_clean_array_passes(self):
        array = FaultyArray(rows=16, cols=16)
        assert MARCH_C_MINUS.run(array).passed

    def test_march_c_detects_stuck_at(self):
        array = FaultyArray(rows=16, cols=16)
        array.inject(Fault(kind=FaultKind.STUCK_AT_0, row=3, col=3))
        array.inject(Fault(kind=FaultKind.STUCK_AT_1, row=5, col=7))
        result = MARCH_C_MINUS.run(array)
        assert {(3, 3), (5, 7)} <= result.failing_cells

    def test_march_c_detects_transition(self):
        array = FaultyArray(rows=16, cols=16)
        array.inject(Fault(kind=FaultKind.TRANSITION, row=2, col=9))
        assert (2, 9) in MARCH_C_MINUS.run(array).failing_cells

    def test_march_c_detects_coupling(self):
        array = FaultyArray(rows=16, cols=16)
        array.inject(
            Fault(
                kind=FaultKind.COUPLING_INV,
                row=4,
                col=4,
                aggressor=(10, 10),
            )
        )
        result = MARCH_C_MINUS.run(array)
        assert (4, 4) in result.failing_cells

    def test_mats_plus_detects_stuck_at(self):
        array = FaultyArray(rows=16, cols=16)
        array.inject(Fault(kind=FaultKind.STUCK_AT_0, row=3, col=3))
        assert (3, 3) in MATS_PLUS.run(array).failing_cells

    def test_retention_needs_pause(self):
        array = FaultyArray(rows=16, cols=16)
        array.inject(Fault(kind=FaultKind.RETENTION, row=6, col=6))
        dry = MARCH_C_MINUS.run(array)
        assert (6, 6) not in dry.failing_cells
        array2 = FaultyArray(rows=16, cols=16)
        array2.inject(Fault(kind=FaultKind.RETENTION, row=6, col=6))
        wet = MARCH_C_RETENTION.run(array2, pause_s=0.2)
        assert (6, 6) in wet.failing_cells

    def test_coverage_metric(self):
        array = inject_random_faults(
            32, 32, n_cell_faults=8, seed=5, include_retention=False
        )
        result = MARCH_C_MINUS.run(array)
        assert result.detected(array.faulty_cells()) == 1.0

    def test_coverage_empty_truth(self):
        array = FaultyArray(rows=4, cols=4)
        assert MARCH_C_MINUS.run(array).detected(set()) == 1.0


class TestFaultModelRegressions:
    """Seed-determinism and edge cases from the injection audit."""

    def test_pause_exactly_at_threshold_retains(self):
        # The boundary case: a pause of exactly the retention threshold
        # is the last surviving interval, not a failure.
        array = FaultyArray(rows=8, cols=8)
        array.inject(Fault(kind=FaultKind.RETENTION, row=0, col=0))
        array.write(0, 0, True)
        array.pause(0.1, retention_threshold_s=0.1)
        assert array.read(0, 0) is True
        array.pause(0.1000001, retention_threshold_s=0.1)
        assert array.read(0, 0) is False

    def test_pause_threshold_must_be_positive(self):
        array = FaultyArray(rows=4, cols=4)
        with pytest.raises(ConfigurationError):
            array.pause(0.1, retention_threshold_s=0.0)

    def test_duplicate_coupling_fault_still_inverts(self):
        # Injecting the same coupling twice used to register the victim
        # twice, so one aggressor write inverted it twice (a no-op) and
        # the fault vanished from every march test.
        array = FaultyArray(rows=8, cols=8)
        fault = Fault(
            kind=FaultKind.COUPLING_INV, row=1, col=1, aggressor=(0, 0)
        )
        array.inject(fault)
        array.inject(fault)
        array.write(1, 1, False)
        array.write(0, 0, True)
        assert array.read(1, 1) is True

    def test_random_faults_deterministic(self):
        a = inject_random_faults(16, 16, n_cell_faults=10, n_line_faults=3,
                                 seed=42)
        b = inject_random_faults(16, 16, n_cell_faults=10, n_line_faults=3,
                                 seed=42)
        assert a.faults == b.faults
        c = inject_random_faults(16, 16, n_cell_faults=10, n_line_faults=3,
                                 seed=43)
        assert a.faults != c.faults

    def test_cell_fault_overflow_rejected(self):
        # Used to spin forever once every cell was already faulty.
        with pytest.raises(ConfigurationError):
            inject_random_faults(4, 4, n_cell_faults=17)

    def test_full_array_exactly_fills(self):
        array = inject_random_faults(4, 4, n_cell_faults=16, seed=1)
        assert len({(f.row, f.col) for f in array.faults}) == 16

    def test_line_faults_deduped(self):
        # Many line faults on a tiny array: every drawn word line must
        # be a distinct row, every bit line a distinct column.
        array = inject_random_faults(
            4, 4, n_cell_faults=0, n_line_faults=8, seed=0
        )
        wl = [f.row for f in array.faults if f.kind is FaultKind.WORD_LINE]
        bl = [f.col for f in array.faults if f.kind is FaultKind.BIT_LINE]
        assert len(wl) == len(set(wl)) == 4
        assert len(bl) == len(set(bl)) == 4

    def test_line_fault_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            inject_random_faults(4, 4, n_cell_faults=0, n_line_faults=9)



class TestRandomFaultMap:
    """Properties of :func:`inject_random_faults`, the campaign's map
    generator."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cell_sites_distinct(self, seed):
        array = inject_random_faults(8, 8, n_cell_faults=40, seed=seed)
        sites = [(f.row, f.col) for f in array.faults]
        assert len(sites) == len(set(sites)) == 40

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_retention_excluded_when_asked(self, seed):
        array = inject_random_faults(
            16, 16, n_cell_faults=60, seed=seed, include_retention=False
        )
        kinds = {f.kind for f in array.faults}
        assert FaultKind.RETENTION not in kinds
        assert kinds <= {
            FaultKind.STUCK_AT_0,
            FaultKind.STUCK_AT_1,
            FaultKind.TRANSITION,
        }

    def test_retention_drawn_by_default(self):
        array = inject_random_faults(16, 16, n_cell_faults=60, seed=0)
        assert FaultKind.RETENTION in {f.kind for f in array.faults}

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_cell_faults": -1}, {"n_cell_faults": 0, "n_line_faults": -1}],
        ids=["negative-cell", "negative-line"],
    )
    def test_negative_counts_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            inject_random_faults(4, 4, **kwargs)

    @pytest.mark.parametrize("n_line_faults", [1, 2, 5])
    def test_line_faults_alternate_word_and_bit_lines(self, n_line_faults):
        array = inject_random_faults(
            8, 8, n_cell_faults=0, n_line_faults=n_line_faults, seed=0
        )
        kinds = [f.kind for f in array.faults]
        assert kinds == [
            FaultKind.WORD_LINE if i % 2 == 0 else FaultKind.BIT_LINE
            for i in range(n_line_faults)
        ]

    def test_ground_truth_covers_whole_lines(self):
        array = inject_random_faults(
            8, 8, n_cell_faults=0, n_line_faults=2, seed=0
        )
        (wl,) = [f for f in array.faults if f.kind is FaultKind.WORD_LINE]
        (bl,) = [f for f in array.faults if f.kind is FaultKind.BIT_LINE]
        # One dead row plus one dead column share exactly one cell.
        assert len(array.faulty_cells()) == 8 + 8 - 1
        assert all((wl.row, c) in array.faulty_cells() for c in range(8))
        assert all((r, bl.col) in array.faulty_cells() for r in range(8))

    def test_signature_cells_match_ground_truth_without_coupling(self):
        array = inject_random_faults(
            8, 8, n_cell_faults=10, n_line_faults=2, seed=4
        )
        cells, _ = array.signatures()
        assert {divmod(cell, 8) for cell in cells.tolist()} == (
            array.faulty_cells()
        )
        assert array.coupled_cells().size == 0


class TestRetentionTime:
    def test_waiting_time(self):
        assert retention_test_time_s(2, 0.2) == pytest.approx(0.4)

    def test_no_pauses(self):
        assert retention_test_time_s(0, 0.2) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            retention_test_time_s(-1, 0.2)
