"""Tests for repro.inject.campaign: measured vs analytical coverage."""

import dataclasses

import pytest

from repro.dft.faults import Fault, FaultKind, FaultyArray
from repro.dft.march import MARCH_C_RETENTION, MATS_PLUS
from repro.dft.redundancy import allocate_spares
from repro.errors import ConfigurationError
from repro.inject.campaign import (
    CAMPAIGN_TESTS,
    CampaignConfig,
    CampaignReport,
    analytical_detection,
    predicted_cells,
    run_campaign,
)
from repro.obs.ledger import MemoryLedger

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


class TestCampaignConfigValidation:
    def test_defaults_valid(self):
        config = CampaignConfig()
        assert config.n_maps >= 1
        assert config.n_cell_faults <= config.rows * config.cols

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_maps": 0},
            {"rows": 0},
            {"cols": 0},
            {"n_cell_faults": -1},
            {"n_line_faults": -1},
            {"rows": 3, "cols": 3, "n_cell_faults": 10},
            {"pause_s": -0.01},
            {"spare_rows": -1},
            {"spare_cols": -1},
        ],
        ids=[
            "no-maps",
            "no-rows",
            "no-cols",
            "negative-cell-faults",
            "negative-line-faults",
            "cells-over-capacity",
            "negative-pause",
            "negative-spare-rows",
            "negative-spare-cols",
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CampaignConfig(**kwargs)

    def test_full_array_of_cell_faults_accepted(self):
        config = CampaignConfig(
            rows=3, cols=3, n_cell_faults=9, n_line_faults=0, n_maps=1
        )
        assert len(config.build_array(0).faulty_cells()) == 9


class TestMapSeeds:
    def test_map_seeds_distinct_across_seeds_and_maps(self):
        seeds = {
            CampaignConfig(seed=seed).map_seed(index)
            for seed in range(5)
            for index in range(50)
        }
        assert len(seeds) == 5 * 50

    def test_build_array_reproducible(self):
        config = CampaignConfig(seed=3)
        assert config.build_array(1).faults == config.build_array(1).faults

    def test_maps_of_one_campaign_differ(self):
        config = CampaignConfig(seed=3)
        assert config.build_array(0).faults != config.build_array(1).faults

    def test_report_records_map_seeds(self):
        config = CampaignConfig(seed=2, n_maps=3)
        report = run_campaign(config)
        assert [entry["seed"] for entry in report.maps] == [
            config.map_seed(index) for index in range(3)
        ]


def _entry(match=True, false_positives=0, verdict_match=True) -> dict:
    """One hand-built map entry of a :class:`CampaignReport`."""
    return {
        "map": 0,
        "seed": 0,
        "n_faults": 1,
        "ground_truth_cells": 1,
        "tests": {
            MATS_PLUS.name: {
                "measured_coverage": 1.0 if match else 0.0,
                "match": match,
                "false_positives": false_positives,
            }
        },
        "repair": {"verdict_match": verdict_match},
    }


class TestCampaignReportVerdict:
    def test_clean_entry_is_ok(self):
        report = CampaignReport(config=CampaignConfig(), maps=[_entry()])
        assert report.ok
        assert "OK" in report.summary()

    def test_empty_report_is_ok(self):
        assert CampaignReport(config=CampaignConfig()).ok

    @pytest.mark.parametrize(
        "fault",
        [
            {"match": False},
            {"false_positives": 1},
            {"verdict_match": False},
        ],
        ids=["coverage-mismatch", "false-positive", "repair-mismatch"],
    )
    def test_any_divergence_fails(self, fault):
        report = CampaignReport(
            config=CampaignConfig(), maps=[_entry(), _entry(**fault)]
        )
        assert not report.ok
        assert report.to_dict()["ok"] is False
        assert "MISMATCH" in report.summary().splitlines()[0]

    def test_summary_flags_mismatching_test(self):
        report = CampaignReport(
            config=CampaignConfig(), maps=[_entry(match=False)]
        )
        assert f"{MATS_PLUS.name} 0.00!" in report.summary()

    def test_to_dict_carries_every_config_field(self):
        config = CampaignConfig(seed=5, n_maps=1, pause_s=0.3)
        payload = run_campaign(config).to_dict()["config"]
        assert payload == dataclasses.asdict(config)


class TestCampaignLedger:
    def test_events_bracket_one_entry_per_map(self):
        ledger = MemoryLedger(run_id="campaign")
        report = run_campaign(CampaignConfig(n_maps=3), ledger=ledger)
        kinds = [event["kind"] for event in ledger.events]
        assert kinds == ["run_start"] + ["campaign_map"] * 3 + ["run_end"]
        assert ledger.events[-1]["status"] == "ok"
        maps = [e for e in ledger.events if e["kind"] == "campaign_map"]
        assert [e["seed"] for e in maps] == [
            entry["seed"] for entry in report.maps
        ]
        assert all(e["repair_verdict_match"] for e in maps)

    def test_ledger_path_is_written_and_closed(self, tmp_path):
        import json

        path = tmp_path / "campaign.jsonl"
        run_campaign(CampaignConfig(n_maps=2), ledger=str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "ledger_open"
        assert kinds[1:] == (
            ["run_start"] + ["campaign_map"] * 2 + ["run_end"]
        )

    def test_no_ledger_same_report(self):
        config = CampaignConfig(seed=4, n_maps=2)
        assert (
            run_campaign(config).to_dict()
            == run_campaign(config, ledger=MemoryLedger()).to_dict()
        )


class TestCampaignSeeds:
    """Campaign-level properties over a spread of seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_campaign_ok(self, seed):
        report = run_campaign(CampaignConfig(seed=seed, n_maps=2))
        assert report.ok, report.summary()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_full_coverage_without_retention(self, seed):
        # Every non-retention fault kind is caught by every campaign
        # test, so without retention faults each test sees every cell.
        report = run_campaign(
            CampaignConfig(seed=seed, n_maps=2, include_retention=False)
        )
        for entry in report.maps:
            for outcome in entry["tests"].values():
                assert outcome["measured_coverage"] == 1.0
                assert outcome["predicted_coverage"] == 1.0

    @pytest.mark.parametrize("pause_s", [0.0, 0.05, 0.1])
    def test_short_pause_hides_retention(self, pause_s):
        # A pause at or under the retention threshold decays nothing:
        # the pausing test then sees exactly what MATS+ sees.
        config = CampaignConfig(
            seed=1, n_maps=1, n_cell_faults=12, n_line_faults=0,
            pause_s=pause_s,
        )
        report = run_campaign(config)
        assert report.ok, report.summary()
        tests = report.maps[0]["tests"]
        assert (
            tests[MARCH_C_RETENTION.name]["measured_cells"]
            == tests[MATS_PLUS.name]["measured_cells"]
        )

    def test_zero_faults_full_coverage(self):
        report = run_campaign(
            CampaignConfig(n_maps=1, n_cell_faults=0, n_line_faults=0)
        )
        entry = report.maps[0]
        assert entry["ground_truth_cells"] == 0
        for outcome in entry["tests"].values():
            assert outcome["predicted_coverage"] == 1.0
            assert outcome["measured_cells"] == 0
        assert entry["repair"]["truth_repaired"]

    def test_no_spares_cannot_repair_faulty_array(self):
        report = run_campaign(
            CampaignConfig(n_maps=1, spare_rows=0, spare_cols=0)
        )
        repair = report.maps[0]["repair"]
        assert repair["truth_repaired"] is False
        assert repair["verdict_match"]


class TestAnalyticalThreshold:
    @pytest.mark.parametrize(
        "threshold, expected",
        [(0.05, {(2, 3)}), (0.2, {(2, 3)}), (0.3, set())],
        ids=["well-under", "just-under", "over"],
    )
    def test_custom_retention_threshold(self, threshold, expected):
        fault = Fault(kind=FaultKind.RETENTION, row=2, col=3)
        predicted = analytical_detection(
            MARCH_C_RETENTION, fault, ROWS, COLS,
            pause_s=0.25, retention_threshold_s=threshold,
        )
        assert predicted == expected
