"""Tests for the inject CLI and the top-level error handling."""

import json

import pytest

from repro import cli as repro_cli
from repro.errors import ConfigurationError
from repro.inject import cli as inject_cli
from repro.inject.campaign import run_campaign


class TestInjectCli:
    def test_campaign_ok(self, capsys):
        code = inject_cli.main(["campaign", "--maps", "1"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_campaign_json_and_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = inject_cli.main(
            ["campaign", "--maps", "1", "--json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert '"ok": true' in capsys.readouterr().out


    def test_flags_reach_the_config(self, capsys):
        code = inject_cli.main(
            [
                "campaign", "--seed", "3", "--maps", "1", "--rows", "8",
                "--cols", "8", "--cell-faults", "4", "--line-faults", "0",
                "--no-retention", "--pause-s", "0.5", "--spare-rows", "1",
                "--spare-cols", "3", "--json",
            ]
        )
        assert code == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {
            "seed": 3, "n_maps": 1, "rows": 8, "cols": 8,
            "n_cell_faults": 4, "n_line_faults": 0,
            "include_retention": False, "pause_s": 0.5,
            "spare_rows": 1, "spare_cols": 3,
        }

    def test_mismatch_exits_nonzero(self, monkeypatch, capsys):
        def diverging(config):
            report = run_campaign(config)
            report.maps[0]["repair"]["verdict_match"] = False
            return report

        monkeypatch.setattr(inject_cli, "run_campaign", diverging)
        assert inject_cli.main(["campaign", "--maps", "1"]) == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "diverged" in captured.err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            inject_cli.main([])


class TestTopLevelErrorHandling:
    def test_configuration_error_is_one_line_exit_2(self, capsys):
        code = repro_cli.main(["inject", "campaign", "--rows", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: [ConfigurationError]")
        assert err.count("\n") == 1

    def test_debug_reraises(self):
        with pytest.raises(ConfigurationError):
            repro_cli.main(
                ["--debug", "inject", "campaign", "--rows", "0"]
            )

    def test_healthy_command_unaffected(self, capsys):
        assert repro_cli.main(["feasibility"]) == 0
        assert "frontier" in capsys.readouterr().out
