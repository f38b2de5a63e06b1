"""Tests for repro.experiments: every claim report holds end to end.

Every experiment E1-E11 runs in full: its claims must hold and its
report must match the golden fingerprint in
``tests/data/experiment_goldens.json`` (sha256[:16] of the report's
canonical JSON).  A fingerprint pins the measured text of every claim,
so a refactor that moves a reported number fails here even when the
claim still holds; an intended model change regenerates the golden and
says why.  E9's report rounds its lot yields to whole percents, so the
raw ``FlowResult`` of both its lots is pinned too
(``tests/data/e09_flow_goldens.json``).  EXPERIMENTS.md must be exactly
what ``python -m repro.experiments.generate_md`` writes from these
reports.
"""

import dataclasses
import functools
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.core.store import canonical_text
from repro.experiments import (
    ALL_EXPERIMENTS,
    e01_interface_power,
    e02_fill_frequency,
    e03_granularity,
    e04_feasibility,
    e06_mpeg2,
    e07_gap_iram,
    e08_siemens_concept,
    e09_test_cost,
)


FAST_EXPERIMENTS = [
    e01_interface_power,
    e02_fill_frequency,
    e03_granularity,
    e04_feasibility,
    e06_mpeg2,
    e07_gap_iram,
    e08_siemens_concept,
    e09_test_cost,
]


GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "experiment_goldens.json").read_text()
)


FLOW_GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "e09_flow_goldens.json").read_text()
)


def report_fingerprint(report) -> str:
    text = canonical_text(dataclasses.asdict(report))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@functools.cache
def report_of(module):
    """Each experiment runs once per session; its tests share the report."""
    return module.run()


@functools.cache
def generated_markdown() -> str:
    from repro.experiments import generate_md

    stream = io.StringIO()
    generate_md.write(
        stream, [(module, report_of(module)) for module in ALL_EXPERIMENTS]
    )
    return stream.getvalue()


@pytest.mark.parametrize(
    "module",
    ALL_EXPERIMENTS,
    ids=lambda m: m.__name__.rsplit(".", 1)[-1],
)
def test_experiment_all_claims_hold(module):
    report = report_of(module)
    assert report.all_hold, report.render()
    assert report_fingerprint(report) == GOLDENS[report.experiment_id], (
        f"{report.experiment_id} report drifted from its golden "
        "fingerprint:\n" + report.render()
    )


@pytest.mark.parametrize(
    "module",
    FAST_EXPERIMENTS,
    ids=lambda m: m.__name__.rsplit(".", 1)[-1],
)
def test_experiment_table_renders(module):
    table = module.render_table()
    assert isinstance(table, str)
    assert len(table.splitlines()) >= 4


def test_experiment_ids_sequential():
    ids = [module.run.__module__.split(".")[-1][:3] for module in
           ALL_EXPERIMENTS]
    assert ids == [f"e{n:02d}" for n in range(1, 12)]


@pytest.mark.parametrize("lot", ["strict", "waived"])
def test_e09_lot_flow_results_match_golden(lot):
    """E9's two 400-die lots at seed 42, as raw counts."""
    from repro.dft.flow import TestFlow

    flow = TestFlow(
        mean_faults_per_die=1.2, waive_retention_only=lot == "waived"
    )
    result = dataclasses.asdict(flow.run_lot(400, seed=42))
    assert result == FLOW_GOLDENS[lot]


def test_e05_weak_org_saturates():
    from repro.experiments.e05_sustainable_bw import simulate_org

    weak = simulate_org(banks=1, page_bits=1024, cycles=4000)
    assert weak.efficiency < 0.75


def test_e05_strong_org_recovers():
    from repro.experiments.e05_sustainable_bw import simulate_org

    weak = simulate_org(banks=1, page_bits=1024, cycles=4000)
    strong = simulate_org(banks=8, page_bits=4096, cycles=4000)
    assert strong.efficiency > weak.efficiency


def test_e10_requirements_derived_from_mpeg2():
    from repro.experiments.e10_design_space import mpeg2_requirements
    from repro.apps.mpeg2 import MPEG2MemoryBudget

    requirements = mpeg2_requirements()
    budget = MPEG2MemoryBudget()
    assert requirements.capacity_bits == budget.total_bits
    assert requirements.sustained_bandwidth_bits_per_s == pytest.approx(
        budget.total_bandwidth_bits_per_s()
    )


def test_generate_md_produces_markdown(tmp_path):
    text = generated_markdown()
    assert "# EXPERIMENTS" in text
    for experiment_id in [f"E{n}" for n in range(1, 12)]:
        assert f"## {experiment_id}:" in text
    assert "**NO**" not in text  # every claim holds


def test_experiments_md_matches_the_generator():
    committed = (Path(__file__).parent.parent / "EXPERIMENTS.md").read_text()
    assert committed == generated_markdown(), (
        "EXPERIMENTS.md is stale: regenerate it with "
        "`python -m repro.experiments.generate_md > EXPERIMENTS.md`"
    )
