"""Differential tests: event-driven backend vs the naive cycle loop.

The event engine's whole contract is *bit-identity on
``result_fingerprint``* with the per-cycle reference across everything
the fuzz corpus generates — both schedulers (FCFS, FR-FCFS), all three
page policies (open, closed, adaptive), windows of 1 to 64 requests,
refresh pressure, backpressure and truncation, all behind the stock
round-robin arbiter — and on the saturated systems behind E5's and the
MPEG2 decoder's claims and the e2e ``sim_load`` systems, where the
engine replays the clients alone while the window is full.  These
tests pin that contract in tier 1;
divergences are localized to the first divergent command cycle by the
``diff_backend`` oracle.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from repro.sim import EventEngine, event_fallback_reason
from repro.sim.simulator import SimulationConfig
from repro.verify import fuzz
from repro.verify.differential import diff_backend, result_fingerprint


def _diff_case(params: dict, **overrides) -> None:
    """Assert event == cycle for one fuzz case (with sim overrides)."""
    if overrides:
        params = dict(params)
        params["sim"] = {**params["sim"], **overrides}

    def factory(backend, record_commands):
        return fuzz.build_simulator(
            params, backend=backend, record_commands=record_commands
        )

    report = diff_backend(factory)
    assert report.identical, report.describe()


def test_backend_bit_identity_fuzz_corpus():
    """Event backend matches the naive loop across generated cases."""
    for index in range(20):
        rng = random.Random(f"event-backend:{index}")
        _diff_case(fuzz.gen_sim_case(rng))


def _reconfigured(simulator, backend, record_commands):
    """``simulator`` set to run on ``backend``, recording if asked."""
    simulator.config = dataclasses.replace(simulator.config, backend=backend)
    controller = simulator.controller
    controller.config = dataclasses.replace(
        controller.config, record_commands=record_commands
    )
    return simulator


@pytest.mark.parametrize(
    "banks,page_bits,private",
    [(1, 1024, False), (8, 4096, False), (8, 4096, True)],
    ids=["1-1024", "8-4096", "8-4096-private"],
)
def test_backend_bit_identity_e05_organizations(banks, page_bits, private):
    """E5's three organizations (the weak, the strong and the strong
    with region-private mapping) at E5's 120% load, saturated: their
    windows stay full, so the event engine replays the clients alone
    for most of the run."""
    from repro.dram.organizations import MappingScheme
    from repro.experiments.e05_sustainable_bw import org_simulator

    mapping = (
        MappingScheme.BANK_ROW_COL if private else MappingScheme.ROW_BANK_COL
    )
    report = diff_backend(
        lambda backend, record_commands: _reconfigured(
            org_simulator(banks, page_bits, mapping, cycles=2_000),
            backend,
            record_commands,
        ),
        label=f"E5 {banks} bank(s) / {page_bits}-bit pages / {mapping.value}",
    )
    assert "fallback" not in report.label
    assert report.identical, report.describe()


E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _sim_load_system(level: str, sub_seed: int):
    """One e2e ``sim_load`` system, built by the benchmark's own
    ``build_system`` at its full length."""
    sys.path.insert(0, str(E2E_DIR))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E_DIR))
    return workloads.build_system(level, sub_seed)


@pytest.mark.parametrize("sub_seed", [0, 1, 2])
@pytest.mark.parametrize("level", ["mid", "high"])
def test_backend_bit_identity_saturated_sim_load(level, sub_seed):
    """The e2e ``sim_load`` systems that fill their windows."""
    report = diff_backend(
        lambda backend, record_commands: _reconfigured(
            _sim_load_system(level, sub_seed), backend, record_commands
        ),
        label=f"sim_load {level} sub-seed {sub_seed}",
    )
    assert "fallback" not in report.label
    assert report.identical, report.describe()


def test_saturated_run_steps_only_controller_events(call_cycles):
    """With the window full, client issues are replayed between steps,
    not stepped: seed-0 ``high`` steps at most 60 % of its cycles."""
    steps = call_cycles(EventEngine, "_step")
    simulator = _sim_load_system("high", 0)
    simulator.run()
    total = simulator.config.cycles + simulator.config.warmup_cycles
    assert simulator.backend_used == "event"
    assert len(steps) <= 0.6 * total, (len(steps), total)


def test_bank_queues_split_the_window_in_order():
    """After every accept and every column command of random runs on
    the naive loop, the controller's per-bank queues are the window
    filtered by bank, each in window order."""
    checks = 0
    for index in range(12):
        params = fuzz.gen_sim_case(random.Random(f"bank-queues:{index}"))
        simulator = fuzz.build_simulator(params, backend="cycle")
        controller = simulator.controller
        n_banks = simulator.device.organization.n_banks

        def check(controller=controller, n_banks=n_banks):
            nonlocal checks
            expected = [[] for _ in range(n_banks)]
            for request in controller.window:
                expected[request.decoded.bank].append(request)
            assert controller._bank_queues == expected
            checks += 1

        def checked(method, check=check):
            def run(*args):
                method(*args)
                check()

            return run

        controller._accept = checked(controller._accept)
        controller._commit_access = checked(controller._commit_access)
        simulator.run()
    assert checks > 1_000, checks


def test_backend_bit_identity_mpeg2_decoder():
    """The MPEG2 decoder system whose bandwidth E6 leans on."""
    from repro.obs.workloads import mpeg2_decoder_simulator

    report = diff_backend(
        lambda backend, record_commands: _reconfigured(
            mpeg2_decoder_simulator(cycles=2_000, warmup_cycles=500),
            backend,
            record_commands,
        ),
        label="MPEG2 decoder",
    )
    assert "fallback" not in report.label
    assert report.identical, report.describe()


def test_backend_bit_identity_truncated():
    """``max_cycles`` truncation lands on the same cycle in both
    backends — including a cap that cuts the run inside warm-up."""
    for index in range(6):
        rng = random.Random(f"event-truncate:{index}")
        params = fuzz.gen_sim_case(rng)
        total = params["sim"]["cycles"] + params["sim"]["warmup_cycles"]
        for cap in (max(1, total // 3), max(1, total // 30)):
            _diff_case(params, max_cycles=cap)


def test_backend_bit_identity_refresh_deadline_edges():
    """Tight retention makes refresh deadlines land mid-skip; the skip
    target must stop at the drain window every time."""
    for index in range(6):
        rng = random.Random(f"event-refresh:{index}")
        params = fuzz.gen_sim_case(rng)
        params["controller"] = {
            **params["controller"],
            "refresh_enabled": True,
            # Retention near the simulated horizon: a handful of rows
            # refresh per interval and the deadlines pile up.
            "refresh_retention_s": params["controller"][
                "refresh_retention_s"
            ]
            / 4,
        }
        _diff_case(params)


def test_backend_default_is_event():
    """The default configuration runs on the event engine and matches
    the naive reference loop."""
    assert SimulationConfig().backend == "event"
    for index in range(5):
        rng = random.Random(f"event-ff:{index}")
        params = fuzz.gen_sim_case(rng)
        naive = fuzz.build_simulator(params, backend="cycle").run()
        default = fuzz.build_simulator(params)
        assert result_fingerprint(naive) == result_fingerprint(default.run())
        assert default.backend_used == "event"


def test_backend_used_diagnostics():
    rng = random.Random("event-diag")
    params = fuzz.gen_sim_case(rng)
    cycle_sim = fuzz.build_simulator(params, backend="cycle")
    cycle_sim.run()
    assert cycle_sim.backend_used == "cycle"
    assert cycle_sim.backend_fallback_reason is None
    event_sim = fuzz.build_simulator(params, backend="event")
    event_sim.run()
    assert event_sim.backend_used == "event"
    assert event_sim.backend_fallback_reason is None


def test_backend_fallback_on_invariant_checking():
    """Live invariant checking needs per-cycle observation; the event
    backend declines and the run still completes on the cycle loop."""
    rng = random.Random("event-invariants")
    params = fuzz.gen_sim_case(rng)
    sim = fuzz.build_simulator(
        params, backend="event", check_invariants="collect"
    )
    reason = event_fallback_reason(sim)
    assert reason is not None and "invariant" in reason
    result = sim.run()
    assert sim.backend_used == "cycle"
    assert sim.backend_fallback_reason == reason
    reference = fuzz.build_simulator(params, backend="cycle").run()
    assert result_fingerprint(result) == result_fingerprint(reference)


def test_backend_fallback_on_observability():
    from repro.obs import Observability

    rng = random.Random("event-obs")
    params = fuzz.gen_sim_case(rng)
    sim = fuzz.build_simulator(
        params, backend="event", obs=Observability.create(trace=False)
    )
    assert event_fallback_reason(sim) is not None
    sim.run()
    assert sim.backend_used == "cycle"
    assert sim.backend_fallback_reason is not None


def test_backend_fallback_on_subclassed_controller():
    """Unknown controller subclasses may override stepped hooks the
    skip analysis never sees — the engine must refuse them."""
    from repro.controller.controller import MemoryController

    class TracingController(MemoryController):
        pass

    rng = random.Random("event-subclass")
    params = fuzz.gen_sim_case(rng)
    sim = fuzz.build_simulator(params, backend="event")
    sim.controller.__class__ = TracingController
    reason = event_fallback_reason(sim)
    assert reason is not None and "controller" in reason
    sim.run()
    assert sim.backend_used == "cycle"


def test_backend_config_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        SimulationConfig(cycles=100, backend="quantum")
    assert SimulationConfig(cycles=100, backend="event").backend == "event"


def test_event_engine_exported():
    assert EventEngine is not None
