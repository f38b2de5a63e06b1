"""Fuzz harness: tier-1 smoke, injected-bug detection, shrinking, CLI.

Small budgets here — deep fuzzing lives in ``tests/fuzz/`` behind the
``fuzz`` marker.  What tier-1 pins is the harness machinery itself:
every registered property passes on generated inputs, a deliberately
mutated bank model is *caught* (and the failure shrinks to a minimal,
seed-free JSON repro that fails under the bug and passes without it),
and the ``python -m repro.verify`` CLI round-trips all of it.
"""

import json

import pytest

from repro.dram.bank import Bank
from repro.dram.commands import CommandType
from repro.errors import ConfigurationError
from repro.verify.cli import main as verify_main
from repro.verify.fuzz import (
    PROPERTIES,
    PROPERTY_BY_NAME,
    _scalar_reductions,
    _shrink_candidates,
    evaluate_case,
    run_fuzz,
    shrink_case,
)


@pytest.fixture
def trcd_bug(monkeypatch):
    """Column commands accepted one cycle before tRCD has elapsed."""
    original = Bank.can_issue

    def relaxed(self, command):
        if command.kind in (CommandType.READ, CommandType.WRITE):
            self._settle(command.cycle)
            return (
                self._open_row is not None
                and command.cycle >= self._ready_column - 1
            )
        return original(self, command)

    monkeypatch.setattr(Bank, "can_issue", relaxed)


class TestRunFuzz:
    def test_small_budget_passes_every_property(self):
        report = run_fuzz(seed=0, budget=3 * len(PROPERTIES))
        assert report.ok, "\n".join(
            failure.describe() for failure in report.failures
        )
        assert report.cases_run == 3 * len(PROPERTIES)
        assert set(report.cases_by_property) == set(PROPERTY_BY_NAME)
        assert all(
            count == 3 for count in report.cases_by_property.values()
        )
        assert "all passed" in report.summary()

    def test_cases_are_json_able_and_deterministic(self):
        import random

        for prop in PROPERTIES:
            first = prop.generate(random.Random("det:1"))
            second = prop.generate(random.Random("det:1"))
            assert first == second
            json.dumps(first)  # must be repro-able as a CLI --case

    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fuzz(seed=0, budget=1, properties=["no_such_property"])

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fuzz(seed=0, budget=0)


class TestEvaluatorBatchProperty:
    def _cases(self, n):
        import random

        generate = PROPERTY_BY_NAME["evaluator_batch"].generate
        return [generate(random.Random(f"batch:{i}")) for i in range(n)]

    def test_cases_take_the_batch_path_and_both_fallbacks(self):
        from repro.core.batch import batch_fallback_reason
        from repro.verify.fuzz import build_macro

        reasons = [
            batch_fallback_reason(
                [build_macro(macro) for macro in case["macros"]]
            )
            for case in self._cases(200)
        ]
        assert reasons.count(None) >= 140  # most cases batch
        fallbacks = " ".join(r for r in reasons if r is not None)
        assert "timing" in fallbacks
        assert "spares" in fallbacks

    def test_a_kernel_mutation_is_caught(self, monkeypatch):
        from repro.core import batch

        original = batch._core_power_lanes

        def off_by_a_bit(width_bytes, read_fraction):
            busy, idle = original(width_bytes, read_fraction)
            return busy * (1 + 1e-12), idle

        monkeypatch.setattr(batch, "_core_power_lanes", off_by_a_bit)
        report = run_fuzz(
            seed=0, budget=8, properties=["evaluator_batch"], shrink=False
        )
        assert not report.ok
        assert "power_w" in report.failures[0].messages[0]


class TestInjectedBugDetection:
    def test_mutation_is_caught_and_shrunk(self, trcd_bug):
        report = run_fuzz(
            seed=0,
            budget=6,
            properties=["sim_invariants"],
            max_shrink_attempts=80,
        )
        assert not report.ok, "the tRCD mutation escaped the fuzzer"
        failure = report.failures[0]
        assert failure.check == "sim_invariants"
        assert any("col.t_rcd" in m for m in failure.messages)
        # Shrinking produced a minimal case that still fails, and the
        # repro command is self-contained (JSON params, no RNG state).
        assert failure.shrunk_params is not None
        assert failure.shrunk_messages
        assert len(failure.case_json()) < len(
            json.dumps(failure.params, sort_keys=True)
        )
        assert "--property sim_invariants" in failure.repro_command()
        assert failure.case_json() in failure.repro_command()
        # The shrunk case fails *under the bug*...
        assert evaluate_case("sim_invariants", failure.shrunk_params)

    def test_shrunk_repro_passes_without_the_bug(self):
        # Patch scope is explicit here: fuzz under the mutation, then
        # replay the shrunk case on the restored model.  A repro that
        # failed either way would indict the generator, not the bug.
        original = Bank.can_issue

        def relaxed(self, command):
            if command.kind in (CommandType.READ, CommandType.WRITE):
                self._settle(command.cycle)
                return (
                    self._open_row is not None
                    and command.cycle >= self._ready_column - 1
                )
            return original(self, command)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Bank, "can_issue", relaxed)
            report = run_fuzz(
                seed=0,
                budget=6,
                properties=["sim_invariants"],
                max_shrink_attempts=80,
            )
            failure = report.failures[0]
            shrunk = json.loads(failure.case_json())
            assert evaluate_case("sim_invariants", shrunk)
        assert Bank.can_issue is original
        assert evaluate_case("sim_invariants", shrunk) == []


class TestShrinker:
    def test_int_reductions_shrink_toward_one(self):
        assert set(_scalar_reductions(10)) == {1, 5, 9}
        assert set(_scalar_reductions(1)) == {0}
        assert list(_scalar_reductions(0)) == []

    def test_bools_are_not_treated_as_ints(self):
        assert list(_scalar_reductions(True)) == []
        assert list(_scalar_reductions(False)) == []

    def test_float_reductions_terminate(self):
        candidates = set(_scalar_reductions(0.73718))
        assert 1.0 in candidates and 0.5 in candidates
        assert 0.73718 not in candidates

    def test_candidates_try_list_removal_first(self):
        params = {"clients": [1, 2], "n": 4}
        candidates = list(_shrink_candidates(params))
        assert candidates[0] == {"clients": [2], "n": 4}
        assert candidates[1] == {"clients": [1], "n": 4}
        assert {"clients": [1, 2], "n": 1} in candidates

    def test_shrink_preserves_failure_and_terminates(self, trcd_bug):
        report = run_fuzz(
            seed=0,
            budget=6,
            properties=["sim_invariants"],
            shrink=False,
        )
        failure = report.failures[0]
        assert failure.shrunk_params is None  # shrink=False honored
        shrunk = shrink_case(
            "sim_invariants", failure.params, max_attempts=60
        )
        assert evaluate_case("sim_invariants", shrunk)
        assert len(json.dumps(shrunk)) <= len(json.dumps(failure.params))


class TestVerifyCLI:
    def test_fuzz_subcommand_clean_run(self, capsys):
        code = verify_main(["fuzz", "--seed", "0", "--budget", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all passed" in out

    def test_properties_subcommand_lists_all(self, capsys):
        code = verify_main(["properties"])
        out = capsys.readouterr().out
        assert code == 0
        for prop in PROPERTIES:
            assert prop.name in out

    def test_case_replay_passes_on_healthy_code(self, capsys):
        import random

        params = PROPERTY_BY_NAME["mapping_roundtrip"].generate(
            random.Random("cli:case")
        )
        code = verify_main(
            [
                "fuzz",
                "--property",
                "mapping_roundtrip",
                "--case",
                json.dumps(params),
            ]
        )
        assert code == 0

    def test_case_replay_fails_under_the_bug(self, trcd_bug, capsys):
        report = run_fuzz(
            seed=0, budget=6, properties=["sim_invariants"],
            max_shrink_attempts=80,
        )
        failure = report.failures[0]
        code = verify_main(
            [
                "fuzz",
                "--property",
                failure.check,
                "--case",
                failure.case_json(),
            ]
        )
        assert code == 1
        assert "col.t_rcd" in capsys.readouterr().out

    def test_bad_case_json_is_a_usage_error(self, capsys):
        code = verify_main(
            ["fuzz", "--property", "pacing_plan", "--case", "{not json"]
        )
        assert code == 2

    def test_sim_differential_subcommand(self, capsys):
        code = verify_main(
            [
                "fuzz",
                "--seed",
                "3",
                "--budget",
                "4",
                "--property",
                "sim_differential",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all passed" in out
        assert "sim_differential" in out

    def test_evaluator_batch_subcommand(self, capsys):
        code = verify_main(
            [
                "fuzz",
                "--seed",
                "0",
                "--budget",
                "8",
                "--property",
                "evaluator_batch",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all passed" in out
        assert "evaluator_batch" in out

    def test_march_sparse_subcommand(self, capsys):
        code = verify_main(
            [
                "fuzz",
                "--seed",
                "0",
                "--budget",
                "8",
                "--property",
                "march_sparse",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all passed" in out
        assert "march_sparse: 8" in out

    def test_repro_cli_forwards(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(
            ["verify", "fuzz", "--seed", "1", "--budget", "6"]
        )
        assert code == 0
        assert "all passed" in capsys.readouterr().out
