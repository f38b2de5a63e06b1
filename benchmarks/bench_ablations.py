"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one knob of the memory system and shows its
effect — the quantitative backing for the paper's claim that these are
*design parameters* worth exposing:

* page policy (open / closed / adaptive) x traffic locality,
* address mapping (bank-interleaved vs. region-private),
* scheduler (FCFS vs. FR-FCFS),
* redundancy level on yielded silicon cost,
* BIST width on test seconds per die,
* burst length vs. latency at iso-offered-load.
"""

import pytest

from repro.controller.controller import MemoryController
from repro.controller.page_policy import (
    AdaptivePagePolicy,
    ClosedPagePolicy,
    OpenPagePolicy,
)
from repro.controller.scheduler import FCFSScheduler, FRFCFSScheduler
from repro.cost.wafer import WaferSpec, die_cost_before_test
from repro.cost.yield_model import YieldModel
from repro.dft.bist import BISTController
from repro.dft.march import MARCH_C_MINUS
from repro.dft.test_cost import LOGIC_TESTER, TestCostModel
from repro.dram.edram import EDRAMMacro
from repro.dram.organizations import AddressMapping, MappingScheme
from repro.reporting.tables import Table
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.traffic.client import MemoryClient
from repro.traffic.patterns import RandomPattern, SequentialPattern
from repro.units import MBIT


def _simulate(page_policy=None, scheduler=None, mapping=None,
              traffic="mixed", cycles=6000):
    macro = EDRAMMacro.build(
        size_bits=4 * MBIT, width=64, banks=4, page_bits=2048
    )
    device = macro.device()
    kwargs = {}
    if page_policy is not None:
        kwargs["page_policy"] = page_policy
    if scheduler is not None:
        kwargs["scheduler"] = scheduler
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(
            device.organization, mapping or MappingScheme.ROW_BANK_COL
        ),
        **kwargs,
    )
    words = device.organization.total_words
    if traffic == "stream":
        clients = [
            MemoryClient(
                name="s",
                pattern=SequentialPattern(base=0, length=words),
                rate=0.5,
            )
        ]
    elif traffic == "random":
        clients = [
            MemoryClient(
                name="r",
                pattern=RandomPattern(base=0, length=words, seed=1),
                rate=0.5,
            )
        ]
    else:
        clients = [
            MemoryClient(
                name="s",
                pattern=SequentialPattern(base=0, length=words // 2),
                rate=0.25,
            ),
            MemoryClient(
                name="r",
                pattern=RandomPattern(base=0, length=words, seed=1),
                rate=0.25,
            ),
        ]
    simulator = MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(cycles=cycles, warmup_cycles=500),
    )
    return simulator.run()


class TestPagePolicyAblation:
    def test_page_policy_by_locality(self, benchmark):
        def ablation():
            rows = []
            for traffic in ("stream", "random"):
                for policy in (
                    OpenPagePolicy(),
                    ClosedPagePolicy(),
                    AdaptivePagePolicy(),
                ):
                    result = _simulate(page_policy=policy, traffic=traffic)
                    rows.append(
                        (traffic, policy.name, result.bandwidth_efficiency,
                         result.latency.mean)
                    )
            return rows

        rows = benchmark.pedantic(ablation, rounds=1, iterations=1)
        table = Table(
            title="Ablation: page policy x traffic",
            columns=["traffic", "policy", "sustained/peak", "latency cyc"],
        )
        outcomes = {}
        for traffic, name, efficiency, latency in rows:
            table.add_row(traffic, name, f"{efficiency:.0%}",
                          f"{latency:.1f}")
            outcomes[(traffic, name)] = (efficiency, latency)
        print()
        print(table.render())
        # Open page must beat closed page on streams (latency).
        assert (
            outcomes[("stream", "open-page")][1]
            < outcomes[("stream", "closed-page")][1]
        )
        # Adaptive must never be much worse than the best fixed policy.
        for traffic in ("stream", "random"):
            best = min(
                outcomes[(traffic, "open-page")][1],
                outcomes[(traffic, "closed-page")][1],
            )
            assert outcomes[(traffic, "adaptive")][1] <= best * 1.25


class TestMappingAblation:
    def test_mapping_on_mixed_traffic(self, benchmark):
        def ablation():
            interleaved = _simulate(mapping=MappingScheme.ROW_BANK_COL)
            private = _simulate(mapping=MappingScheme.BANK_ROW_COL)
            return interleaved, private

        interleaved, private = benchmark.pedantic(
            ablation, rounds=1, iterations=1
        )
        print()
        print(
            f"bank-interleaved: {interleaved.bandwidth_efficiency:.0%} "
            f"({interleaved.latency.mean:.1f} cyc) | region-private: "
            f"{private.bandwidth_efficiency:.0%} "
            f"({private.latency.mean:.1f} cyc)"
        )
        # Both mappings must serve the offered load; the knob exists and
        # is measurable.
        assert interleaved.requests_completed > 0
        assert private.requests_completed > 0


class TestSchedulerAblation:
    def test_scheduler_on_mixed_traffic(self, benchmark):
        def ablation():
            frfcfs = _simulate(scheduler=FRFCFSScheduler())
            fcfs = _simulate(scheduler=FCFSScheduler())
            return frfcfs, fcfs

        frfcfs, fcfs = benchmark.pedantic(ablation, rounds=1, iterations=1)
        print()
        print(
            f"FR-FCFS: {frfcfs.bandwidth_efficiency:.0%} hits "
            f"{frfcfs.row_hit_rate:.0%} | FCFS: "
            f"{fcfs.bandwidth_efficiency:.0%} hits {fcfs.row_hit_rate:.0%}"
        )
        assert (
            frfcfs.sustained_bandwidth_bits_per_s
            >= fcfs.sustained_bandwidth_bits_per_s - 1e-9
        )


class TestRedundancyAblation:
    def test_redundancy_level_on_yielded_cost(self, benchmark):
        def ablation():
            rows = []
            wafer = WaferSpec(cost_multiplier=1.15)
            for spares in (0, 2, 4, 8):
                macro = EDRAMMacro.build(
                    size_bits=64 * MBIT, width=256,
                    redundancy_spares=spares,
                )
                area = macro.area_mm2()
                y = YieldModel(memory_spares=spares).memory_yield(area)
                cost = die_cost_before_test(wafer, area, y)
                rows.append((spares, area, y, cost))
            return rows

        rows = benchmark.pedantic(ablation, rounds=1, iterations=1)
        table = Table(
            title="Ablation: redundancy level on a 64-Mbit module",
            columns=["spares", "area mm^2", "yield", "cost/good module"],
        )
        for spares, area, y, cost in rows:
            table.add_row(spares, f"{area:.1f}", f"{y:.0%}", f"{cost:.2f}")
        print()
        print(table.render())
        costs = {spares: cost for spares, _, _, cost in rows}
        # Some redundancy beats none (yield dominates the area tax)...
        assert costs[2] < costs[0]
        # ...with diminishing returns beyond.
        assert abs(costs[8] - costs[4]) < costs[0] - costs[2]


class TestBurstLengthAblation:
    def test_burst_length_latency_tradeoff(self, benchmark):
        """Section 4: "the increased bandwidth must be paid with
        increased latencies and burst lengths" — at matched peak
        bandwidth, longer bursts raise the latency floor for short
        (random) accesses while barely moving stream throughput."""
        from dataclasses import replace

        from repro.dram.timing import EDRAM_TIMING

        def run_with_burst(burst_length, traffic):
            macro = EDRAMMacro.build(
                size_bits=4 * MBIT, width=64, banks=4, page_bits=2048
            )
            device = macro.device()
            device.timing = replace(
                EDRAM_TIMING, burst_length=burst_length
            )
            for bank in device.banks:
                bank.timing = device.timing
            controller = MemoryController(
                device=device,
                mapping=AddressMapping(
                    device.organization, MappingScheme.ROW_BANK_COL
                ),
            )
            words = device.organization.total_words
            if traffic == "random":
                clients = [
                    MemoryClient(
                        name="r",
                        pattern=RandomPattern(
                            base=0, length=words, seed=1
                        ),
                        rate=0.4 / burst_length,
                    )
                ]
            else:
                clients = [
                    MemoryClient(
                        name="s",
                        pattern=SequentialPattern(base=0, length=words),
                        rate=0.4 / burst_length,
                    )
                ]
            simulator = MemorySystemSimulator(
                controller=controller,
                clients=clients,
                config=SimulationConfig(cycles=6000, warmup_cycles=500),
            )
            return simulator.run()

        def ablation():
            rows = []
            for burst in (2, 4, 8, 16):
                random_result = run_with_burst(burst, "random")
                stream_result = run_with_burst(burst, "stream")
                rows.append(
                    (
                        burst,
                        random_result.latency.mean,
                        stream_result.bandwidth_efficiency,
                    )
                )
            return rows

        rows = benchmark.pedantic(ablation, rounds=1, iterations=1)
        table = Table(
            title="Ablation: burst length at iso-offered-load",
            columns=["burst", "random latency cyc", "stream sustained"],
        )
        for burst, latency, efficiency in rows:
            table.add_row(burst, f"{latency:.1f}", f"{efficiency:.0%}")
        print()
        print(table.render())
        latencies = [latency for _, latency, _ in rows]
        assert latencies[-1] > latencies[0]


class TestBISTWidthAblation:
    def test_bist_width_on_test_time(self, benchmark):
        def ablation():
            rows = []
            for width in (16, 64, 256, 512):
                model = TestCostModel(
                    tester=LOGIC_TESTER,
                    bist=BISTController(internal_width_bits=width),
                )
                rows.append(
                    (
                        width,
                        model.total_time_s(MARCH_C_MINUS, 64 * MBIT),
                        model.waiting_fraction(MARCH_C_MINUS, 64 * MBIT),
                    )
                )
            return rows

        rows = benchmark.pedantic(ablation, rounds=1, iterations=1)
        table = Table(
            title="Ablation: BIST width on March C- over 64 Mbit",
            columns=["BIST width", "test s/die", "waiting share"],
        )
        for width, seconds, waiting in rows:
            table.add_row(width, f"{seconds:.3f}", f"{waiting:.0%}")
        print()
        print(table.render())
        times = [seconds for _, seconds, _ in rows]
        assert times == sorted(times, reverse=True)
        # Saturation: the last doubling buys almost nothing.
        assert times[-2] - times[-1] < 0.1 * (times[0] - times[-1])
