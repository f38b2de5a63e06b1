"""Tests for repro.inject.campaign: measured vs analytical coverage."""

import pytest

from repro.dft.faults import Fault, FaultKind, FaultyArray
from repro.dft.march import MARCH_C_RETENTION, MATS_PLUS
from repro.dft.redundancy import allocate_spares
from repro.errors import ConfigurationError
from repro.inject.campaign import (
    CAMPAIGN_TESTS,
    CampaignConfig,
    analytical_detection,
    predicted_cells,
    run_campaign,
)

ROWS = COLS = 16


def _array_with(fault: Fault) -> FaultyArray:
    array = FaultyArray(rows=ROWS, cols=COLS)
    array.inject(fault)
    return array


def _single_faults() -> list:
    """One representative fault per kind, placed mid-array."""
    return [
        Fault(kind=FaultKind.STUCK_AT_0, row=3, col=4),
        Fault(kind=FaultKind.STUCK_AT_1, row=5, col=6),
        Fault(kind=FaultKind.TRANSITION, row=7, col=2),
        Fault(kind=FaultKind.COUPLING_INV, row=2, col=2, aggressor=(9, 9)),
        Fault(kind=FaultKind.WORD_LINE, row=10, col=0),
        Fault(kind=FaultKind.BIT_LINE, row=0, col=11),
        Fault(kind=FaultKind.RETENTION, row=12, col=13),
    ]


class TestAnalyticalDetectionProperty:
    """Every fault kind injected alone is detected by every campaign
    test at exactly the analytically predicted cells."""

    @pytest.mark.parametrize(
        "fault", _single_faults(), ids=lambda f: f.kind.value
    )
    @pytest.mark.parametrize(
        "test", CAMPAIGN_TESTS, ids=lambda t: t.name
    )
    def test_measured_equals_predicted(self, test, fault):
        pause_s = 0.2
        array = _array_with(fault)
        result = test.run(array, pause_s=pause_s)
        predicted = analytical_detection(
            test, fault, ROWS, COLS, pause_s=pause_s
        )
        assert result.failing_cells == predicted

    @pytest.mark.parametrize(
        "fault", _single_faults(), ids=lambda f: f.kind.value
    )
    def test_mats_plus_rate_matches_prediction(self, fault):
        array = _array_with(fault)
        truth = array.faulty_cells()
        result = MATS_PLUS.run(array)
        predicted = analytical_detection(MATS_PLUS, fault, ROWS, COLS)
        assert result.detected(truth) == len(predicted) / len(truth)

    def test_retention_pause_boundary(self):
        fault = Fault(kind=FaultKind.RETENTION, row=1, col=1)
        # Exactly at the threshold: retained, so not predicted and not
        # measured.
        at = analytical_detection(
            MARCH_C_RETENTION, fault, ROWS, COLS, pause_s=0.1
        )
        assert at == set()
        array = _array_with(fault)
        assert MARCH_C_RETENTION.run(array, pause_s=0.1).failing_cells == set()
        beyond = analytical_detection(
            MARCH_C_RETENTION, fault, ROWS, COLS, pause_s=0.11
        )
        assert beyond == {(1, 1)}

    def test_retention_invisible_without_pause(self):
        fault = Fault(kind=FaultKind.RETENTION, row=1, col=1)
        assert (
            analytical_detection(MATS_PLUS, fault, ROWS, COLS, pause_s=0.5)
            == set()
        )


class TestRepairProperty:
    """Spare allocation over the campaign's measured fault map agrees
    with allocation over the ground truth."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_measured_vs_truth_verdicts(self, seed):
        config = CampaignConfig(seed=seed, n_maps=1)
        array = config.build_array(0)
        truth = array.faulty_cells()
        measured: set = set()
        for test in CAMPAIGN_TESTS:
            fresh = config.build_array(0)
            measured |= test.run(
                fresh, pause_s=config.pause_s
            ).failing_cells
        measured_plan = allocate_spares(
            measured, config.spare_rows, config.spare_cols
        )
        truth_plan = allocate_spares(
            truth, config.spare_rows, config.spare_cols
        )
        assert measured_plan.repaired == truth_plan.repaired


class TestRunCampaign:
    def test_campaign_matches_predictions(self, march_path):
        # Measured detection equals analytical_detection on the
        # fault-sparse march and on the cell-by-cell reference walk.
        report = run_campaign(CampaignConfig(seed=0, n_maps=3))
        assert report.ok, report.summary()
        assert len(report.maps) == 3
        for entry in report.maps:
            for outcome in entry["tests"].values():
                assert outcome["false_positives"] == 0

    def test_campaign_reproducible(self):
        config = CampaignConfig(seed=7, n_maps=2)
        assert run_campaign(config).to_dict() == run_campaign(
            config
        ).to_dict()

    def test_retention_only_seen_by_pausing_test(self):
        config = CampaignConfig(
            seed=1, n_maps=1, n_cell_faults=12, n_line_faults=0
        )
        report = run_campaign(config)
        entry = report.maps[0]
        paused = entry["tests"][MARCH_C_RETENTION.name]
        dry = entry["tests"][MATS_PLUS.name]
        assert paused["predicted_cells"] >= dry["predicted_cells"]

    def test_write_json(self, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        run_campaign(CampaignConfig(n_maps=1)).write_json(path)
        payload = json.loads(path.read_text())
        assert payload["ok"] is True

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(rows=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(n_maps=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(rows=2, cols=2, n_cell_faults=5)

    def test_predicted_cells_union(self):
        array = FaultyArray(rows=ROWS, cols=COLS)
        array.inject(Fault(kind=FaultKind.STUCK_AT_0, row=0, col=0))
        array.inject(Fault(kind=FaultKind.WORD_LINE, row=5, col=0))
        predicted = predicted_cells(MATS_PLUS, array, pause_s=0.0)
        assert (0, 0) in predicted
        assert all((5, c) in predicted for c in range(COLS))
