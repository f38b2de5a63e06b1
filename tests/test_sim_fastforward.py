"""Simulator fast path: bit-identity with the naive loop + pacing.

The event engine (the default backend) must be *observationally
indistinguishable* from stepping every cycle (``backend="cycle"``):
same completed requests in the same order, same command counts, same
latency samples, same FIFO statistics.  The grid here crosses client
mixes, bank counts, refresh and page policy; any divergence is a bug in
the skip-safety analysis, not an acceptable approximation.  Controller
subclasses are declined by the engine, which says why
(``test_sim_event_backend.py``).

Also pins the token-bucket pacing contract the engine relies on:
credit accrual freezes while a client's request is back-pressured, and
one pacing plan serves a client from one issue to the next.  And the
shared drive loop's re-offer shortcut: a held request facing a full
FIFO skips ``offer()`` only where the call could do nothing but refuse.
"""

import random

import pytest

from repro.controller.controller import ControllerConfig, MemoryController
from repro.controller.page_policy import ClosedPagePolicy
from repro.dram.edram import EDRAMMacro
from repro.dram.organizations import AddressMapping, MappingScheme
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.sim.event_engine import EventEngine
from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
from repro.traffic.client import MemoryClient
from repro.traffic.patterns import RandomPattern, SequentialPattern
from repro.units import MBIT


def make_clients(mix: str, rate: float):
    if mix == "stream":
        return [
            MemoryClient(
                name="s0",
                pattern=SequentialPattern(base=0, length=32768),
                rate=rate,
            )
        ]
    if mix == "mixed":
        return [
            MemoryClient(
                name="s0",
                pattern=SequentialPattern(base=0, length=32768),
                rate=rate,
            ),
            MemoryClient(
                name="r0",
                pattern=RandomPattern(base=0, length=262144, seed=5),
                rate=rate,
                read_fraction=0.6,
                seed=5,
            ),
        ]
    if mix == "low":
        return [
            MemoryClient(
                name="display",
                pattern=SequentialPattern(base=0, length=32768),
                rate=rate,
            ),
            MemoryClient(
                name="video",
                pattern=SequentialPattern(base=32768, length=32768),
                rate=rate,
                read_fraction=0.7,
                seed=7,
            ),
            MemoryClient(
                name="cpu",
                pattern=RandomPattern(base=0, length=262144, seed=3),
                rate=rate,
                read_fraction=0.6,
                seed=11,
            ),
        ]
    raise ValueError(mix)


def build(
    mix="mixed",
    rate=0.02,
    banks=4,
    refresh=True,
    policy=None,
    backend="event",
    cycles=3000,
    warmup=300,
    fifo_capacity=8,
):
    macro = EDRAMMacro.build(
        size_bits=4 * MBIT, width=64, banks=banks, page_bits=2048
    )
    device = macro.device()
    kwargs = {}
    if policy is not None:
        kwargs["page_policy"] = policy
    controller = MemoryController(
        device=device,
        mapping=AddressMapping(
            device.organization, MappingScheme.ROW_BANK_COL
        ),
        config=ControllerConfig(
            refresh_enabled=refresh, fifo_capacity=fifo_capacity
        ),
        **kwargs,
    )
    return MemorySystemSimulator(
        controller=controller,
        clients=make_clients(mix, rate),
        config=SimulationConfig(
            cycles=cycles, warmup_cycles=warmup, backend=backend
        ),
    )


def fingerprint(result):
    """Every observable field of a SimulationResult."""
    return (
        result.requests_completed,
        result.data_bits_transferred,
        result.commands,
        result.refreshes,
        result.bank_activations,
        result.fifo_high_water,
        result.fifo_stall_cycles,
        result.row_hit_rate,
        result.latency.digest(),
        {
            name: stats.digest()
            for name, stats in result.latency_by_client.items()
        },
    )


def assert_equivalent(**kwargs):
    naive = build(backend="cycle", **kwargs)
    fast = build(backend="event", **kwargs)
    assert fingerprint(naive.run()) == fingerprint(fast.run())
    return fast


class TestFastForwardEquivalence:
    @pytest.mark.parametrize("rate", [0.002, 0.02, 0.1, 0.9])
    def test_load_grid(self, rate):
        fast = assert_equivalent(rate=rate)
        assert fast.backend_used == "event"

    @pytest.mark.parametrize("banks", [1, 4])
    def test_bank_grid(self, banks):
        assert_equivalent(banks=banks, rate=0.01)

    @pytest.mark.parametrize("refresh", [True, False])
    def test_refresh_grid(self, refresh):
        assert_equivalent(refresh=refresh, rate=0.01)

    def test_closed_page_policy(self):
        assert_equivalent(policy=ClosedPagePolicy(), rate=0.01)

    def test_zero_warmup(self):
        assert_equivalent(warmup=0, rate=0.01)

    def test_single_stream(self):
        assert_equivalent(mix="stream", rate=0.005)

    def test_fast_path_actually_skips(self, call_cycles):
        steps = call_cycles(EventEngine, "_step")
        sim = build(rate=0.002)
        sim.run()
        # At 0.2% offered load the run is overwhelmingly idle; a fast
        # path that never skips is a silently-broken fast path.
        total = sim.config.warmup_cycles + sim.config.cycles
        assert sim.backend_used == "event"
        assert total - len(steps) > 1000

    def test_fast_forward_off_steps_every_cycle(self, call_cycles):
        steps = call_cycles(MemoryController, "step")
        sim = build(rate=0.002, backend="cycle")
        sim.run()
        total = sim.config.warmup_cycles + sim.config.cycles
        assert steps == list(range(total))

    def test_backpressure_equivalence(self):
        # A 1-deep FIFO under load exercises the _pending barrier: the
        # fast path must not skip while a request is held back.
        assert_equivalent(rate=0.5, fifo_capacity=1)


class TestHeldRequestReoffers:
    """A back-pressured client's held request is re-offered every cycle.
    The drive loop records a refusal directly while the FIFO stays full,
    but only for the stock ``offer`` with no observer attached: an
    override or an observer still sees every re-offer."""

    def test_offer_override_sees_every_reoffer(self):
        offers = []

        class CountingController(MemoryController):
            def offer(self, request):
                offers.append(request.request_id)
                return super().offer(request)

        sim = build(rate=0.5, fifo_capacity=1, warmup=0)
        sim.controller.__class__ = CountingController
        result = sim.run()
        stalls = sum(result.fifo_stall_cycles.values())
        assert stalls > 0, "scenario never back-pressured a client"
        pushed = sum(client.issued for client in sim.clients) - len(
            sim._pending
        )
        assert len(offers) == pushed + stalls

    def test_observer_sees_every_refusal(self):
        sim = build(rate=0.5, fifo_capacity=1, warmup=0)
        obs = Observability.create().attach(sim)
        result = sim.run()
        assert sum(result.fifo_stall_cycles.values()) > 0
        for name, stalls in result.fifo_stall_cycles.items():
            counter = obs.metrics.counter(f"fifo.stalls.{name}")
            assert counter.value == stalls


class TestPacingContract:
    def test_tick_many_matches_iterated_ticks(self):
        a = MemoryClient(
            name="a",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.003,
        )
        b = MemoryClient(
            name="b",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.003,
        )
        for span in (1, 7, 100, 333):
            for _ in range(span):
                a.tick()
            b.tick_many(span)
            # Bit-identical, not approximately equal: the event engine
            # replays the naive loop's float rounding sequence.
            assert a._credit == b._credit

    def test_cycles_until_wants_is_pure_lookahead(self):
        client = MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.01,
        )
        before = client._credit
        ticks = client.cycles_until_wants(1000)
        assert client._credit == before
        for _ in range(ticks):
            assert not client.wants_to_issue(0)
            client.tick()
        assert client.wants_to_issue(0)

    @pytest.mark.parametrize("rate", [0.9, 0.105, 0.031, 0.02, 0.004])
    def test_growing_lookahead_matches_brute_force(self, rate):
        """Lookahead and replay stay bit-exact when the limit grows in
        steps, so the trajectory is extended in Python (short spans) and
        in NumPy (long spans) on top of what earlier calls memoized."""
        rng = random.Random(rate)
        for _ in range(20):
            start = rng.random()
            client = MemoryClient(
                name="c",
                pattern=SequentialPattern(base=0, length=1024),
                rate=rate,
            )
            client._credit = start
            brute = 0
            credit = start
            while credit + rate < 1.0:
                credit = min(credit + rate, 4.0)
                brute += 1
            for limit in (1, 3, 9, 40, 300):
                assert client.cycles_until_wants(limit) == min(brute, limit)
            span = rng.randint(1, max(1, brute))
            client.tick_many(span)
            stepped = start
            for _ in range(span):
                stepped = min(stepped + rate, 4.0)
            assert client._credit == stepped

    def test_one_pacing_plan_per_issue(self, monkeypatch):
        """At low load (three clients at rate 0.001, four banks) the
        engine builds at most one pacing plan per issued request plus
        each client's first: the plan anchored at an issue serves every
        lookahead and batched accrual until the next one.  Builds are
        counted, not timed, so the test does not depend on host speed."""
        builds = []
        build_plan = MemoryClient._pacing_plan

        def counting(client, *args):
            builds.append(client.name)
            return build_plan(client, *args)

        monkeypatch.setattr(MemoryClient, "_pacing_plan", counting)
        sim = build(mix="low", rate=0.001, cycles=20_000, warmup=1_000)
        result = sim.run()
        assert sim.backend_used == "event"
        issued = sum(client.issued for client in sim.clients)
        assert issued >= 50
        assert len(builds) <= issued + len(sim.clients)
        reference = build(
            mix="low", rate=0.001, cycles=20_000, warmup=1_000,
            backend="cycle",
        ).run()
        assert fingerprint(result) == fingerprint(reference)

    def test_tiny_rate_span_chains_plans(self, monkeypatch):
        """Below 1/_PLAN_LIMIT the want point lies past one plan's end:
        a lookahead-sized tick_many goes on along fresh plans anchored
        at each end (one build per 4,096 ticks), not tick by tick, and
        still lands on the iterated credit bit for bit."""
        rate = 1e-4
        client = MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=rate,
        )
        builds = []
        build_plan = MemoryClient._pacing_plan

        def counting(client, *args):
            builds.append(client.name)
            return build_plan(client, *args)

        monkeypatch.setattr(MemoryClient, "_pacing_plan", counting)
        ticks = client.cycles_until_wants(1_000_000)
        assert ticks > 2 * MemoryClient._PLAN_LIMIT
        client.tick_many(ticks)
        assert len(builds) <= ticks // MemoryClient._PLAN_LIMIT + 1
        # The cursor ends on a plan, as only a span read off plans does.
        assert client._plan_age <= client._plan_stop
        assert client._plan[client._plan_age] == client._credit
        credit = 0.0
        for _ in range(ticks):
            credit = min(credit + rate, 4.0)
        assert client._credit == credit
        assert client.wants_to_issue(0)
        assert client.cycles_until_wants(10) == 0

    def test_cycles_until_wants_respects_limit(self):
        client = MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.001,
        )
        assert client.cycles_until_wants(10) == 10

    def test_negative_arguments_rejected(self):
        client = MemoryClient(
            name="c",
            pattern=SequentialPattern(base=0, length=1024),
            rate=0.5,
        )
        with pytest.raises(ConfigurationError):
            client.tick_many(-1)
        with pytest.raises(ConfigurationError):
            client.cycles_until_wants(-1)

    def test_credit_freezes_under_backpressure(self):
        """The pinned pacing semantics: a back-pressured client accrues
        no credit while its request is held in the simulator's pending
        slot (the held request already spent its credit; banking more
        would burst out after the stall and distort pacing)."""
        sim = build(rate=0.5, fifo_capacity=1, backend="cycle")
        client = sim.clients[0]
        observed_frozen = False
        total = sim.config.warmup_cycles + sim.config.cycles
        # Drive the loop manually, watching the pending slot.
        for cycle in range(total):
            pending_before = client.name in sim._pending
            credit_before = client._credit
            issued_before = client.issued
            sim._drive_clients(cycle)
            if pending_before and client.name in sim._pending:
                # Still back-pressured: credit frozen, nothing issued.
                assert client._credit == credit_before
                assert client.issued == issued_before
                observed_frozen = True
            sim.controller.step(cycle)
        assert observed_frozen, "scenario never back-pressured the client"
