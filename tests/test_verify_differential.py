"""Differential oracles: fast vs per-cycle, serial vs parallel, diffing.

The acceptance surface of the verification subsystem: the event-engine
simulator must be bit-identical to the per-cycle reference on a broad
sample of *fuzz-generated* configurations (not just hand-picked ones),
the process-pool sweep must match its serial reference, and when two
executions *do* differ the report must localize the first divergent
command and cycle rather than just saying "something differed".
"""

import math
import random

import pytest

from repro.dram.commands import Command, CommandType
from repro.dram.edram import EDRAMMacro
from repro.errors import ConfigurationError
from repro.units import MBIT
from repro.verify.differential import (
    DifferentialReport,
    FieldDiff,
    FirstDivergence,
    diff_backend,
    diff_serial_vs_parallel,
    diff_values,
    first_command_divergence,
    result_fingerprint,
)
from repro.verify.fuzz import build_simulator, gen_sim_case


# Twenty-plus generated configurations: the differential acceptance
# criterion.  Seeds are arbitrary but fixed so failures are repro-able.
FUZZ_SEEDS = [f"diffsuite:{i}" for i in range(22)]


class TestFastForwardDifferential:
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_fast_forward_matches_per_cycle(self, seed):
        params = gen_sim_case(random.Random(seed))
        report = diff_backend(
            lambda backend, record_commands: build_simulator(
                params, backend=backend, record_commands=record_commands
            )
        )
        assert report.identical, report.describe()

    def test_divergence_is_localized(self):
        """Two genuinely different workloads (client seed differs) must
        produce a non-identical report that names the first divergent
        command — the first-divergence machinery end to end."""
        rng = random.Random("diffsuite:localize")
        base = gen_sim_case(rng)
        # Force a stochastic client so the seed actually matters.
        base["clients"] = [
            {
                "name": "c0",
                "pattern": {
                    "kind": "random",
                    "base": 0,
                    "length": 256,
                    "seed": 1,
                },
                "rate": 0.6,
                "read_fraction": 0.5,
                "seed": 1,
            }
        ]
        other = {
            **base,
            "clients": [
                {
                    **base["clients"][0],
                    "pattern": {**base["clients"][0]["pattern"], "seed": 2},
                    "seed": 2,
                }
            ],
        }

        def factory(backend, record_commands):
            params = other if backend == "event" else base
            return build_simulator(
                params, backend=backend, record_commands=record_commands
            )

        report = diff_backend(factory, label="seed 1 vs seed 2")
        assert not report.identical
        assert report.diffs, "different workloads must differ somewhere"
        divergence = report.first_divergence
        assert divergence is not None
        assert divergence.cycle is not None
        assert divergence.cycle >= 0
        # The human-facing description names the label, the cycle and at
        # least one differing field.
        text = report.describe()
        assert "seed 1 vs seed 2" in text
        assert "first divergence" in text


class TestFirstCommandDivergence:
    def act(self, cycle, bank=0, row=0):
        return Command(
            kind=CommandType.ACTIVATE, cycle=cycle, bank=bank, row=row
        )

    def test_identical_logs_have_no_divergence(self):
        log = [self.act(0), self.act(10, bank=1)]
        assert first_command_divergence(log, list(log)) is None
        assert first_command_divergence([], []) is None

    def test_first_differing_command_is_reported(self):
        left = [self.act(0), self.act(7, bank=1), self.act(20)]
        right = [self.act(0), self.act(9, bank=1), self.act(20)]
        divergence = first_command_divergence(left, right)
        assert divergence == FirstDivergence(
            index=1, left=left[1], right=right[1]
        )
        assert divergence.cycle == 7  # the earlier of the two sides

    def test_prefix_log_diverges_at_the_missing_tail(self):
        left = [self.act(0), self.act(5)]
        right = [self.act(0)]
        divergence = first_command_divergence(left, right)
        assert divergence.index == 1
        assert divergence.left == left[1]
        assert divergence.right is None
        assert divergence.cycle == 5
        mirrored = first_command_divergence(right, left)
        assert mirrored.left is None and mirrored.right == left[1]

    def test_both_sides_missing_has_no_cycle(self):
        divergence = FirstDivergence(index=3, left=None, right=None)
        assert divergence.cycle is None


class TestDiffValues:
    def test_equal_structures_produce_no_diffs(self):
        value = {"a": [1, 2, (3.5, "x")], "b": {"c": None}}
        assert diff_values(value, value) == []

    def test_scalar_diff_carries_the_path(self):
        diffs = diff_values({"a": {"b": 1}}, {"a": {"b": 2}}, "root")
        assert diffs == [FieldDiff("root['a']['b']", 1, 2)]

    def test_missing_dict_keys_are_reported_from_both_sides(self):
        diffs = diff_values({"a": 1}, {"b": 2}, "d")
        paths = {diff.path: (diff.left, diff.right) for diff in diffs}
        assert paths == {
            "d['a']": (1, "<missing>"),
            "d['b']": ("<missing>", 2),
        }

    def test_length_mismatch_and_element_diffs(self):
        diffs = diff_values([1, 2, 3], [1, 9], "seq")
        assert FieldDiff("seq.len", 3, 2) in diffs
        assert FieldDiff("seq[1]", 2, 9) in diffs

    def test_floats_compare_exactly(self):
        assert diff_values(0.1 + 0.2, 0.3) != []
        nan_diffs = diff_values(float("nan"), float("nan"))
        assert len(nan_diffs) == 1  # NaN != NaN: bit-identity, not ==
        assert math.isnan(nan_diffs[0].left)

    def test_report_describe_truncates(self):
        report = DifferentialReport(
            label="wide",
            diffs=[FieldDiff(f"f{i}", i, -i) for i in range(12)],
        )
        text = report.describe(limit=3)
        assert "12 field diffs" in text
        assert "... and 9 more" in text


def _bandwidth_of(width: int) -> float:
    """Module-level (picklable) worker for the pool comparison."""
    from repro.core.evaluator import Evaluator
    from repro.experiments.e10_design_space import mpeg2_requirements

    macro = EDRAMMacro(
        size_bits=16 * MBIT, width=width, banks=4, page_bits=4096
    )
    metrics = Evaluator().evaluate_macro(macro, mpeg2_requirements())
    return metrics.sustained_bandwidth_bits_per_s


def _rejects(width: int) -> float:
    if width > 64:
        raise ConfigurationError(f"width {width} rejected on purpose")
    return float(width)


class TestSerialVsParallel:
    def test_macro_sweep_matches(self):
        report = diff_serial_vs_parallel(
            _bandwidth_of, [16, 32, 64, 128], workers=2
        )
        assert report.identical, report.describe()

    def test_caught_errors_match_too(self):
        # Error outcomes (caught ReproError subclasses) must round-trip
        # through the pool identically to the serial path.
        report = diff_serial_vs_parallel(
            _rejects, [16, 64, 128, 256], workers=2, chunk_size=1
        )
        assert report.identical, report.describe()


class TestResultFingerprint:
    def test_fingerprint_equals_iff_results_identical(self):
        params = gen_sim_case(random.Random("diffsuite:fingerprint"))
        first = build_simulator(params).run()
        second = build_simulator(params).run()
        assert result_fingerprint(first) == result_fingerprint(second)
        assert hash(result_fingerprint(first)) is not None  # hashable
