"""Seeded fuzz harness: generate, check, shrink — no external deps.

Random (but fully deterministic) generators build whole simulator
configurations, timing parameter sets, traffic mixes, macro/requirement
pairs and metric matrices; each generated case is run through one of the
registered *properties* — predicates that must hold on every valid
input:

* ``sim_differential`` — event-engine simulation is bit-identical to
  the per-cycle reference on the same workload;
* ``sim_invariants`` — a live-checked run reports zero protocol/state
  violations and its recorded command trace replays cleanly through
  :class:`~repro.dram.tracecheck.TraceChecker`;
* ``pareto_engines`` — the python and numpy Pareto engines agree, and
  both engines of the array mask agree with them, ties, duplicates
  and NaNs included;
* ``evaluator_batch`` — :meth:`Evaluator.evaluate_macros` (the numpy
  batch kernel, or its scalar fallback on mixed batches) equals the
  scalar :meth:`Evaluator.evaluate_macro` loop exactly;
* ``mapping_roundtrip`` — address decode/encode is a bijection;
* ``pacing_plan`` — ``tick_many``/``cycles_until_wants`` are
  bit-identical to iterated ``tick`` calls, also across a random
  interleaving of pacing calls, issues and direct credit writes;
* ``serve_protocol`` — the exploration service accepts every valid job
  payload (executes it, caches it byte-identically, re-serves it
  without re-evaluating) and rejects every invalid one with a 4xx
  envelope, never a crash (the ``fuzz_serve`` target);
* ``march_sparse`` — the fault-sparse march equals the cell-by-cell
  reference walk (:func:`repro.verify.march.march_reference`): same
  failing cells in the same order, operation count and final cells.

Every case derives from ``random.Random(f"{seed}:{index}")``, so a
failure is pinned by ``(property, seed, index)`` alone; the harness
additionally *shrinks* failing cases — greedily trying smaller
parameter values and shorter client lists while the failure persists —
and prints a one-line repro command for the minimal case.

Run via ``python -m repro.verify fuzz --seed 0 --budget 200``.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field

from repro.errors import CapacityError, ConfigurationError
from repro.verify.march import check_march_sparse, gen_march_case

#: Exception types that mean "this candidate is not a valid input" (as
#: opposed to "the property failed").  Raised mid-shrink they disqualify
#: the candidate; raised on a generated case they expose a generator bug.
_INVALID = (ConfigurationError, CapacityError)


# -- generators --------------------------------------------------------------


def gen_timing(rng: random.Random) -> dict:
    """Random valid :class:`TimingParameters` kwargs."""
    t_ras = rng.randint(2, 8)
    return {
        "clock_period_ns": rng.choice([5.0, 7.0, 10.0]),
        "t_rcd": rng.randint(1, 4),
        "t_cas": rng.randint(1, 3),
        "t_rp": rng.randint(1, 4),
        "t_ras": t_ras,
        "t_rc": t_ras + rng.randint(1, 4),
        "t_rrd": rng.randint(1, 3),
        "t_wr": rng.randint(1, 3),
        "t_rfc": rng.randint(2, 12),
        "burst_length": rng.choice([1, 2, 4, 8]),
        "t_turnaround": rng.randint(0, 2),
    }


def gen_organization(rng: random.Random) -> dict:
    """Random valid :class:`Organization` kwargs (kept small so short
    simulations still exercise row misses and bank conflicts)."""
    page_bits = rng.choice([512, 1024, 2048])
    return {
        "n_banks": rng.choice([1, 2, 4, 8]),
        "n_rows": rng.randint(4, 48),  # arbitrary row counts are legal
        "page_bits": page_bits,
        "word_bits": rng.choice(
            [w for w in (8, 16, 32, 64) if w <= page_bits]
        ),
    }


def gen_clients(rng: random.Random, total_words: int) -> list:
    """1-3 random traffic clients over a ``total_words`` address space."""
    clients = []
    for index in range(rng.randint(1, 3)):
        length = rng.randint(1, max(1, total_words))
        base = rng.randrange(max(1, total_words))
        kind = rng.choice(["sequential", "strided", "random", "block"])
        if kind == "sequential":
            pattern = {"kind": kind, "base": base, "length": length}
        elif kind == "strided":
            pattern = {
                "kind": kind,
                "base": base,
                "length": length,
                "stride": rng.choice([1, 2, 3, 7, 16]),
            }
        elif kind == "random":
            pattern = {
                "kind": kind,
                "base": base,
                "length": length,
                "seed": rng.randint(0, 1_000),
            }
        else:
            width = rng.randint(4, 64)
            height = rng.randint(2, 32)
            pattern = {
                "kind": kind,
                "base": base,
                "width": width,
                "height": height,
                "block_w": rng.randint(1, width),
                "block_h": rng.randint(1, height),
            }
        clients.append(
            {
                "name": f"c{index}",
                "pattern": pattern,
                "rate": round(rng.uniform(0.02, 0.95), 3),
                "read_fraction": rng.choice([1.0, 0.0, 0.25, 0.5, 0.75]),
                "seed": rng.randint(0, 1_000),
            }
        )
    return clients


def gen_sim_case(rng: random.Random) -> dict:
    """One full simulator configuration as a JSON-able parameter dict."""
    timing = gen_timing(rng)
    organization = gen_organization(rng)
    total_words = (
        organization["n_banks"]
        * organization["n_rows"]
        * organization["page_bits"]
        // organization["word_bits"]
    )
    # Aim the refresh interval at a cycle count short simulations reach:
    # interval_cycles = retention_s * clock_hz / n_rows.
    interval_cycles = rng.randint(80, 400)
    retention_s = (
        interval_cycles
        * organization["n_rows"]
        * timing["clock_period_ns"]
        * 1e-9
    )
    case = {
        "timing": timing,
        "organization": organization,
        "scheme": rng.choice(["row:bank:col", "bank:row:col"]),
        "controller": {
            "window_size": rng.randint(1, 12),
            "fifo_capacity": rng.randint(1, 8),
            "refresh_enabled": rng.random() < 0.85,
            "refresh_retention_s": retention_s,
        },
        "sim": {
            "cycles": rng.randint(150, 600),
            "warmup_cycles": rng.choice([0, 0, rng.randint(10, 80)]),
        },
        "clients": gen_clients(rng, total_words),
    }
    # Drawn after everything above, so those draws are unchanged.
    case["scheduler"] = rng.choice(["fr-fcfs", "fr-fcfs", "fcfs"])
    case["page_policy"] = rng.choice(["open-page", "closed-page", "adaptive"])
    if rng.random() < 0.3:
        case["controller"]["window_size"] = rng.randint(13, 64)
    return case


def gen_macro_case(rng: random.Random) -> dict:
    """A valid eDRAM macro plus an application-requirements set.

    Sizes are multiples of the 256 Kbit building block; since
    ``banks * page_bits`` is a power of two no larger than 2^17 and the
    block is 2^18 bits, any block multiple divides evenly into banks of
    pages — every generated macro satisfies the Siemens concept rules.
    """
    block = 256 * 1024
    size_bits = rng.randint(1, 64) * block
    page_bits = rng.choice([1024, 2048, 4096, 8192])
    return {
        "macro": {
            "size_bits": size_bits,
            "width": rng.choice([16, 32, 64, 128, 256, 512]),
            "banks": rng.choice([1, 2, 4, 8, 16]),
            "page_bits": page_bits,
            "redundancy_spares": rng.choice([0, 2, 4, 8]),
        },
        "requirements": {
            "name": "fuzz",
            "capacity_bits": max(1, int(size_bits * rng.uniform(0.1, 1.0))),
            "sustained_bandwidth_bits_per_s": round(
                rng.uniform(0.05, 8.0) * 1e9, 1
            ),
            "max_latency_ns": rng.choice([None, 50.0, 200.0]),
            "power_budget_w": rng.choice([None, 0.5, 2.0]),
            "read_fraction": round(rng.random(), 3),
            "locality": round(rng.random(), 3),
        },
    }


def gen_macro_batch_case(rng: random.Random) -> dict:
    """1-24 macros from :func:`gen_macro_case` under one requirement set.

    Most cases share one ``redundancy_spares`` across the list, so the
    batch kernel serves them; the rest keep each macro's own spares, or
    give some macros their own timing, so the scalar fallback runs too.
    """
    cases = [gen_macro_case(rng) for _ in range(rng.randint(1, 24))]
    macros = [case["macro"] for case in cases]
    mix = rng.choices(["shared", "spares", "timing"], weights=[8, 1, 1])[0]
    if mix != "spares":
        spares = rng.choice([0, 2, 4, 8])
        for macro in macros:
            macro["redundancy_spares"] = spares
    if mix == "timing":
        timing = gen_timing(rng)
        # The concept's cycle time is 7 ns; a slower clock is refused.
        timing["clock_period_ns"] = rng.choice([5.0, 7.0])
        for macro in rng.sample(macros, rng.randint(1, len(macros))):
            macro["timing"] = dict(timing)
    return {"macros": macros, "requirements": cases[0]["requirements"]}


def gen_pareto_case(rng: random.Random) -> dict:
    """A metric matrix rich in ties, duplicates and the odd NaN."""
    n = rng.randint(2, 30)
    dim = rng.randint(1, 4)
    palette = [0.0, 1.0, 2.0, 3.0]
    vectors = []
    for _ in range(n):
        vectors.append(
            [
                float("nan") if rng.random() < 0.07 else rng.choice(palette)
                for _ in range(dim)
            ]
        )
    return {"vectors": vectors}


def gen_mapping_case(rng: random.Random) -> dict:
    """An organization, a mapping scheme and probe addresses."""
    organization = gen_organization(rng)
    total_words = (
        organization["n_banks"]
        * organization["n_rows"]
        * organization["page_bits"]
        // organization["word_bits"]
    )
    return {
        "organization": organization,
        "scheme": rng.choice(["row:bank:col", "bank:row:col"]),
        "addresses": [rng.randrange(total_words) for _ in range(32)],
    }


def gen_pacing_case(rng: random.Random) -> dict:
    """A token-bucket rate, tick counts and an interleaving of pacing
    calls to cross-check pacing paths.

    Rates are log-uniform in [1e-4, 1], so some want points lie beyond
    a pacing plan's length cap, or, one case in eight, a power of two,
    whose credit sums reach the issue threshold exactly.  Tick counts
    and limits reach 400 or about two want points, whichever is more,
    so fast clients run long past the credit cap; op arguments reach
    about two want points.  Each op is a one-key dict
    (see :func:`_check_pacing_ops`), so shrinking keeps the names
    intact.
    """
    if rng.random() < 0.125:
        rate = 2.0 ** -rng.randint(0, 13)
    else:
        rate = float(f"{10 ** rng.uniform(-4.0, 0.0):.4g}")
    horizon = int(2 / rate) + 2
    ops = []
    for _ in range(rng.randint(1, 24)):
        kind = rng.choice(
            ["tick", "tick_many", "until", "skip", "issue", "write", "rewind"]
        )
        if kind == "tick":
            ops.append({kind: rng.randint(1, 8)})
        elif kind in ("tick_many", "until", "skip"):
            ops.append({kind: rng.randint(0, horizon)})
        elif kind == "write":
            ops.append({kind: round(rng.uniform(-1.0, 1.0), 4)})
        else:
            ops.append({kind: rng.randint(1, 3)})
    top = max(400, horizon)
    return {
        "rate": rate,
        "ticks": rng.randint(1, top),
        "limit": rng.randint(1, top),
        "ops": ops,
    }


#: Workload name the serve fuzzer registers for its generated jobs.
_SERVE_FUZZ_WORKLOAD = "fuzz_point"


def _serve_fuzz_point(a: int = 1, b: int = 2, mode: str = "ok") -> dict:
    """Cheap deterministic workload behind the ``serve_protocol`` fuzz.

    Pure arithmetic keeps thousands of fuzz evaluations fast, and the
    ``mode`` axis gives the generator a handle on the quarantine path
    (``mode="boom"`` raises like an unconstructible design point).
    """
    if mode == "boom":
        raise ConfigurationError("fuzz point asked to fail")
    return {
        "value": a * 31 + b,
        "objectives": [float(a + b), float(a - b)],
    }


def gen_serve_case(rng: random.Random) -> dict:
    """A job payload for the service, labeled valid or invalid.

    Valid payloads are built only from known-good constructions (the
    label is the oracle, so it must be *correct by construction*, not
    re-derived by the code under test); invalid ones take a valid
    payload and apply one mutation that is invalid by the protocol's
    documented rules.
    """
    payload: dict = {
        "kind": "sweep",
        "workload": _SERVE_FUZZ_WORKLOAD,
        "axes": {},
        "backend": rng.choice(["auto", "scalar"]),
    }
    axes = payload["axes"]
    for axis in ("a", "b"):
        if axis == "a" or rng.random() < 0.7:
            axes[axis] = [
                rng.randint(-50, 50)
                for _ in range(rng.randint(1, 3))
            ]
    if rng.random() < 0.3:
        # Exercise the quarantine path: failing points + skip_errors.
        axes["mode"] = ["ok", "boom"]
        payload["skip_errors"] = True
    elif rng.random() < 0.5:
        payload["skip_errors"] = rng.random() < 0.5

    if rng.random() < 0.55:
        return {"payload": payload, "valid": True}

    mutation = rng.choice(
        [
            "drop_kind",
            "bad_kind",
            "unknown_workload",
            "unknown_axis",
            "empty_axes",
            "axis_not_list",
            "empty_axis_values",
            "non_scalar_value",
            "bad_backend",
            "unknown_field",
            "bad_skip_errors",
            "too_large",
            "not_an_object",
            "explore_no_requirements",
            "explore_bad_capacity",
        ]
    )
    if mutation == "drop_kind":
        del payload["kind"]
    elif mutation == "bad_kind":
        payload["kind"] = rng.choice(["sweeep", "", "job", 7])
    elif mutation == "unknown_workload":
        payload["workload"] = "no_such_workload"
    elif mutation == "unknown_axis":
        axes["no_such_parameter"] = [1]
    elif mutation == "empty_axes":
        payload["axes"] = {}
    elif mutation == "axis_not_list":
        axes["a"] = 5
    elif mutation == "empty_axis_values":
        axes["a"] = []
    elif mutation == "non_scalar_value":
        axes["a"] = [[1, 2]]
    elif mutation == "bad_backend":
        payload["backend"] = "warp"
    elif mutation == "unknown_field":
        payload["axess"] = {"a": [1]}
    elif mutation == "bad_skip_errors":
        payload["skip_errors"] = "yes"
    elif mutation == "too_large":
        payload["axes"] = {
            "a": list(range(80)),
            "b": list(range(80)),
        }
    elif mutation == "not_an_object":
        payload = rng.choice([[], "job", 7, None])
    elif mutation == "explore_no_requirements":
        payload = {"kind": "explore"}
    elif mutation == "explore_bad_capacity":
        payload = {
            "kind": "explore",
            "requirements": {
                "name": "f",
                "capacity_mbit": -rng.randint(1, 9),
                "bandwidth_gbit_s": 1.0,
            },
        }
    return {"payload": payload, "valid": False}


# -- builders ----------------------------------------------------------------


def _build_pattern(params: dict):
    from repro.traffic.patterns import (
        BlockPattern,
        RandomPattern,
        SequentialPattern,
        StridedPattern,
    )

    kind = params["kind"]
    if kind == "sequential":
        return SequentialPattern(base=params["base"], length=params["length"])
    if kind == "strided":
        return StridedPattern(
            base=params["base"],
            length=params["length"],
            stride=params["stride"],
        )
    if kind == "random":
        return RandomPattern(
            base=params["base"], length=params["length"], seed=params["seed"]
        )
    if kind == "block":
        return BlockPattern(
            base=params["base"],
            width=params["width"],
            height=params["height"],
            block_w=params["block_w"],
            block_h=params["block_h"],
        )
    raise ConfigurationError(f"unknown pattern kind {kind!r}")


def build_client(params: dict):
    from repro.traffic.client import MemoryClient

    return MemoryClient(
        name=params["name"],
        pattern=_build_pattern(params["pattern"]),
        rate=params["rate"],
        read_fraction=params["read_fraction"],
        seed=params["seed"],
    )


def build_simulator(
    params: dict,
    *,
    backend: str = "event",
    record_commands: bool = False,
    check_invariants: str = "off",
    obs=None,
):
    """Instantiate a fresh simulator from a ``gen_sim_case`` dict.

    ``scheduler`` and ``page_policy`` name the stock classes by their
    ``name``; absent keys mean FR-FCFS and the open-page policy.
    """
    from repro.controller.controller import (
        ControllerConfig,
        MemoryController,
    )
    from repro.controller.page_policy import (
        AdaptivePagePolicy,
        ClosedPagePolicy,
        OpenPagePolicy,
    )
    from repro.controller.scheduler import FCFSScheduler, FRFCFSScheduler
    from repro.dram.device import DRAMDevice
    from repro.dram.organizations import AddressMapping, MappingScheme
    from repro.dram.organizations import Organization
    from repro.dram.timing import TimingParameters
    from repro.sim.simulator import MemorySystemSimulator, SimulationConfig

    timing = TimingParameters(**params["timing"])
    organization = Organization(**params["organization"])
    device = DRAMDevice(
        organization=organization, timing=timing, name="fuzz"
    )
    mapping = AddressMapping(
        organization=organization, scheme=MappingScheme(params["scheme"])
    )
    schedulers = {cls.name: cls for cls in (FCFSScheduler, FRFCFSScheduler)}
    policies = {
        cls.name: cls
        for cls in (OpenPagePolicy, ClosedPagePolicy, AdaptivePagePolicy)
    }
    try:
        scheduler = schedulers[params.get("scheduler", "fr-fcfs")]()
        page_policy = policies[params.get("page_policy", "open-page")]()
    except KeyError as error:
        raise ConfigurationError(f"unknown scheduler or policy {error}")
    controller = MemoryController(
        device=device,
        mapping=mapping,
        scheduler=scheduler,
        page_policy=page_policy,
        config=ControllerConfig(
            record_commands=record_commands, **params["controller"]
        ),
    )
    clients = [build_client(client) for client in params["clients"]]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(
            check_invariants=check_invariants,
            backend=backend,
            **params["sim"],
        ),
        obs=obs,
    )


def build_macro(params: dict):
    """An :class:`EDRAMMacro` from its kwargs (``timing`` as a dict)."""
    from repro.dram.edram import EDRAMMacro
    from repro.dram.timing import TimingParameters

    kwargs = dict(params)
    if "timing" in kwargs:
        kwargs["timing"] = TimingParameters(**kwargs["timing"])
    return EDRAMMacro(**kwargs)


def build_requirements(params: dict):
    from repro.core.requirements import ApplicationRequirements

    return ApplicationRequirements(**params["requirements"])


# -- properties --------------------------------------------------------------


def check_sim_differential(params: dict) -> list:
    from repro.verify.differential import diff_backend

    report = diff_backend(
        lambda backend, record_commands: build_simulator(
            params, backend=backend, record_commands=record_commands
        )
    )
    return [] if report.identical else [report.describe()]


def check_sim_invariants(params: dict) -> list:
    from repro.dram.tracecheck import TraceChecker

    simulator = build_simulator(
        params, record_commands=True, check_invariants="collect"
    )
    simulator.run()
    messages = []
    report = simulator.invariant_report
    if not report.clean:
        messages.append(f"live invariants: {report.summary()}")
        messages.extend(str(v) for v in report.violations[:5])
    trace_report = TraceChecker(
        organization=simulator.device.organization,
        timing=simulator.device.timing,
    ).check(simulator.controller.command_log)
    if not trace_report.clean:
        messages.append(f"trace replay: {trace_report.summary()}")
        messages.extend(
            f"#{v.index} {v.command}: {v.reason}"
            for v in trace_report.violations[:5]
        )
    return messages


def check_pareto_engines(params: dict) -> list:
    import numpy as np

    from repro.core.pareto import pareto_frontier, pareto_frontier_mask

    vectors = [tuple(float(x) for x in row) for row in params["vectors"]]
    items = list(range(len(vectors)))

    def objectives(index: int):
        return vectors[index]

    python = pareto_frontier(items, objectives, engine="python")
    numpy_ = pareto_frontier(items, objectives, engine="numpy")
    auto = pareto_frontier(items, objectives, engine="auto")
    messages = []
    if python != numpy_:
        messages.append(
            f"python {python} != numpy {numpy_} on {vectors}"
        )
    if python != auto:
        messages.append(f"python {python} != auto {auto} on {vectors}")
    matrix = np.array(vectors, dtype=float)
    for engine in ("python", "numpy"):
        kept = np.flatnonzero(
            pareto_frontier_mask(matrix, engine=engine)
        ).tolist()
        if kept != python:
            messages.append(
                f"mask[{engine}] {kept} != frontier {python} on {vectors}"
            )
    return messages


def check_evaluator_batch(params: dict) -> list:
    from repro.core.batch import batch_fallback_reason
    from repro.core.evaluator import Evaluator
    from repro.verify.differential import diff_values

    macros = [build_macro(macro) for macro in params["macros"]]
    requirements = build_requirements(params)
    evaluator = Evaluator()
    batched = evaluator.evaluate_macros(macros, requirements)
    scalar = [evaluator.evaluate_macro(m, requirements) for m in macros]
    if batched == scalar:
        return []
    path = batch_fallback_reason(macros) or "batch kernel"
    return [
        f"evaluate_macros ({path}) != scalar loop: {diff}"
        for diff in diff_values(batched, scalar, "metrics")
    ]


def check_mapping_roundtrip(params: dict) -> list:
    from repro.dram.organizations import (
        AddressMapping,
        MappingScheme,
        Organization,
    )

    organization = Organization(**params["organization"])
    mapping = AddressMapping(
        organization=organization, scheme=MappingScheme(params["scheme"])
    )
    messages = []
    for address in params["addresses"]:
        decoded = mapping.decode(address)
        if not (
            0 <= decoded.bank < organization.n_banks
            and 0 <= decoded.row < organization.n_rows
            and 0 <= decoded.column < organization.columns_per_page
        ):
            messages.append(f"decode({address}) out of range: {decoded}")
            continue
        back = mapping.encode(decoded)
        if back != address:
            messages.append(
                f"encode(decode({address})) = {back} != {address}"
            )
    return messages


def check_pacing_plan(params: dict) -> list:
    from repro.traffic.client import CREDIT_CAP, MemoryClient
    from repro.traffic.patterns import SequentialPattern

    def make():
        return MemoryClient(
            name="p",
            pattern=SequentialPattern(base=0, length=16),
            rate=params["rate"],
        )

    ticks, limit = params["ticks"], params["limit"]
    messages = []
    # tick_many must be bit-identical to iterated tick.
    stepped, jumped = make(), make()
    for _ in range(ticks):
        stepped.tick()
    jumped.tick_many(ticks)
    if stepped.credit != jumped.credit:
        messages.append(
            f"tick x{ticks} -> {stepped.credit!r} but "
            f"tick_many({ticks}) -> {jumped.credit!r}"
        )
    # cycles_until_wants must match brute force and must not mutate.
    probe, brute = make(), make()
    before = probe.credit
    predicted = probe.cycles_until_wants(limit)
    if probe.credit != before:
        messages.append("cycles_until_wants mutated the credit")
    actual = 0
    while actual < limit and not brute.wants_to_issue(actual):
        brute.tick()
        actual += 1
    if predicted != actual:
        messages.append(
            f"cycles_until_wants({limit}) = {predicted}, brute force "
            f"says {actual} at rate {params['rate']}"
        )
    # The pacing plan built by the lookahead must replay the same
    # floats when tick_many later consumes it.
    planned, reference = make(), make()
    planned.cycles_until_wants(limit)  # builds the pacing plan
    span = min(ticks, limit)
    planned.tick_many(span)
    for _ in range(span):
        reference.tick()
    if planned.credit != reference.credit:
        messages.append(
            f"planned tick_many({span}) -> {planned.credit!r} != "
            f"stepped {reference.credit!r}"
        )
    messages.extend(_check_pacing_ops(make, params.get("ops", [])))
    # Closed-loop issue accounting: credit bounded, long-run rate held.
    driven = make()
    issued = 0
    for cycle in range(ticks):
        if driven.wants_to_issue(cycle):
            driven.next_request()
            issued += 1
        else:
            driven.tick()
        if not -1e-9 <= driven.credit <= CREDIT_CAP + 1e-9:
            messages.append(
                f"credit {driven.credit!r} out of [0, {CREDIT_CAP}] "
                f"after cycle {cycle}"
            )
            break
    if abs(issued - params["rate"] * ticks) > CREDIT_CAP + 1.0:
        messages.append(
            f"issued {issued} over {ticks} cycles at rate "
            f"{params['rate']} (expected ~{params['rate'] * ticks:.1f})"
        )
    return messages


def _check_pacing_ops(make, ops: list) -> list:
    """Drive one client through ``ops`` and a twin through the same
    effects using only ``tick()``, ``next_request()`` and the credit
    writes; the two must agree bit for bit after every op.

    Ops: ``{"tick": n}`` n single ticks; ``{"tick_many": n}``;
    ``{"until": limit}`` a lookahead, checked against brute force;
    ``{"skip": limit}`` what the event engine does: look ahead, batch
    the idle ticks, then issue if the client wants to; ``{"issue": n}``
    n unconditional issues; ``{"write": credit}`` a direct credit
    write; ``{"rewind": k}`` writes back the credit held k ops ago.
    """
    client, twin = make(), make()
    history = [twin.credit]
    for index, op in enumerate(ops):
        if not isinstance(op, dict) or len(op) != 1:
            raise ConfigurationError(f"malformed pacing op {op!r}")
        ((kind, arg),) = op.items()
        if kind == "tick":
            for _ in range(arg):
                client.tick()
                twin.tick()
        elif kind == "tick_many":
            client.tick_many(arg)
            for _ in range(arg):
                twin.tick()
        elif kind in ("until", "skip"):
            before = client.credit
            predicted = client.cycles_until_wants(arg)
            brute = make()
            brute._credit = twin.credit
            actual = 0
            while actual < arg and not brute.wants_to_issue(0):
                brute.tick()
                actual += 1
            if client.credit != before or predicted != actual:
                return [
                    f"op {index} {op}: cycles_until_wants = {predicted} "
                    f"(brute force {actual}), credit {before!r} -> "
                    f"{client.credit!r}"
                ]
            if kind == "skip":
                client.tick_many(predicted)
                for _ in range(predicted):
                    twin.tick()
                if client.wants_to_issue(0):
                    client.next_request()
                    twin.next_request()
        elif kind == "issue":
            for _ in range(arg):
                client.next_request()
                twin.next_request()
        elif kind in ("write", "rewind"):
            if kind == "write":
                credit = float(arg)
            else:
                credit = history[max(-1 - arg, -len(history))]
            client._credit = credit
            twin._credit = credit
        else:
            raise ConfigurationError(f"unknown pacing op {kind!r}")
        if client.credit != twin.credit or client.issued != twin.issued:
            return [
                f"op {index} {op}: credit {client.credit!r} != "
                f"{twin.credit!r} (issued {client.issued} vs {twin.issued})"
            ]
        history.append(twin.credit)
    return []


def check_serve_protocol(params: dict) -> list:
    """The ``fuzz_serve`` target: valid jobs run + cache byte-identically,
    invalid jobs get a 4xx envelope, and nothing ever crashes the
    service."""
    from repro.serve.handlers import ExplorationService, route
    from repro.serve.protocol import SCHEMA_VERSION
    from repro.serve.workloads import register_workload, unregister_workload

    payload, valid = params["payload"], params["valid"]
    messages: list = []

    def note_envelope(status: int, body) -> None:
        if not isinstance(body, dict):
            messages.append(f"non-object response body: {body!r}")
        elif body.get("schema_version") != SCHEMA_VERSION:
            messages.append(
                f"response missing schema_version {SCHEMA_VERSION}: {body}"
            )

    register_workload(_SERVE_FUZZ_WORKLOAD, _serve_fuzz_point, replace=True)
    service = ExplorationService(max_workers=2)
    try:
        status, body = route(service, "POST", "/v1/jobs", payload)
        note_envelope(status, body)
        if not valid:
            if not 400 <= status < 500:
                messages.append(
                    f"invalid payload got HTTP {status} (want 4xx): "
                    f"{body} for {payload!r}"
                )
            elif body.get("ok") is not False:
                messages.append(f"4xx response not marked ok=false: {body}")
            else:
                error = body.get("error") or {}
                if not error.get("code") or not error.get("message"):
                    messages.append(
                        f"4xx envelope missing code/message: {body}"
                    )
            return messages

        if status != 200:
            messages.append(
                f"valid payload rejected with HTTP {status}: {body} "
                f"for {payload!r}"
            )
            return messages
        job_id = body["job_id"]
        if not service.wait(job_id, timeout_s=60.0):
            messages.append(f"job {job_id} did not finish in 60s")
            return messages
        final, final_body = route(service, "GET", f"/v1/jobs/{job_id}")
        note_envelope(final, final_body)
        if final_body.get("status") != "done":
            messages.append(
                f"valid job ended {final_body.get('status')!r}: "
                f"{final_body.get('error')}"
            )
            return messages
        cold_text = service.result_text(job_id)
        evaluations = service.stats["evaluations"]
        executions = service.stats["executions"]

        # Identical re-submission: a warm hit, byte-identical, free.
        rerun, rerun_body = route(service, "POST", "/v1/jobs", payload)
        note_envelope(rerun, rerun_body)
        if rerun != 200 or rerun_body.get("cached") is not True:
            messages.append(
                f"identical resubmission not served from cache: "
                f"HTTP {rerun} {rerun_body}"
            )
            return messages
        warm_text = service.result_text(rerun_body["job_id"])
        if warm_text.encode() != cold_text.encode():
            messages.append("warm result bytes differ from cold result")
        if service.stats["evaluations"] != evaluations:
            messages.append(
                f"warm hit re-evaluated: {service.stats['evaluations']} "
                f"!= {evaluations}"
            )
        if service.stats["executions"] != executions:
            messages.append("warm hit counted as an execution")
        return messages
    finally:
        service.close()
        unregister_workload(_SERVE_FUZZ_WORKLOAD)


@dataclass(frozen=True)
class FuzzProperty:
    """One fuzzable property: a generator plus a predicate.

    Attributes:
        name: CLI-addressable identifier.
        generate: ``generate(rng) -> params`` (JSON-able).
        check: ``check(params) -> [failure message, ...]`` (empty = pass).
    """

    name: str
    generate: object
    check: object


#: Registered properties, in round-robin execution order (cheap and
#: expensive interleaved so small budgets still touch everything).
PROPERTIES = (
    FuzzProperty("sim_differential", gen_sim_case, check_sim_differential),
    FuzzProperty("pareto_engines", gen_pareto_case, check_pareto_engines),
    FuzzProperty("sim_invariants", gen_sim_case, check_sim_invariants),
    FuzzProperty(
        "mapping_roundtrip", gen_mapping_case, check_mapping_roundtrip
    ),
    FuzzProperty(
        "evaluator_batch", gen_macro_batch_case, check_evaluator_batch
    ),
    FuzzProperty("pacing_plan", gen_pacing_case, check_pacing_plan),
    FuzzProperty("serve_protocol", gen_serve_case, check_serve_protocol),
    FuzzProperty("march_sparse", gen_march_case, check_march_sparse),
)

PROPERTY_BY_NAME = {prop.name: prop for prop in PROPERTIES}


# -- running and shrinking ---------------------------------------------------


def evaluate_case(name: str, params) -> list:
    """Run one property on explicit params; returns failure messages.

    Raises the invalid-input exceptions (:data:`_INVALID`) through, so a
    shrink candidate that is not constructible can be told apart from a
    genuine property failure; any other exception *is* a failure.
    """
    prop = PROPERTY_BY_NAME[name]
    try:
        return list(prop.check(params))
    except _INVALID:
        raise
    except Exception as error:  # a crash is a finding, not an abort
        return [f"unhandled {type(error).__name__}: {error!r}"]


def _scalar_reductions(value):
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        for candidate in (1, value // 2, value - 1):
            if 0 <= candidate < value:
                yield candidate
    elif isinstance(value, float):
        for candidate in (1.0, 0.5, round(value, 2), round(value, 1)):
            if candidate != value:
                yield candidate


def _walk(value, prefix=()):
    if isinstance(value, dict):
        for key in value:
            yield from _walk(value[key], prefix + (key,))
    elif isinstance(value, list):
        yield prefix, value
        for index, item in enumerate(value):
            yield from _walk(item, prefix + (index,))
    else:
        yield prefix, value


def _replaced(params, path, value):
    clone = copy.deepcopy(params)
    node = clone
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return clone


def _removed(params, path, index):
    clone = copy.deepcopy(params)
    node = clone
    for key in path:
        node = node[key]
    del node[index]
    return clone


def _shrink_candidates(params):
    """Yield simplified copies of ``params``: shorter lists first (the
    biggest structural wins), then smaller scalar values."""
    for path, value in _walk(params):
        if isinstance(value, list) and len(value) > 1:
            for index in range(len(value)):
                yield _removed(params, path, index)
    for path, value in _walk(params):
        if not isinstance(value, list):
            for reduced in _scalar_reductions(value):
                yield _replaced(params, path, reduced)


def shrink_case(name: str, params, max_attempts: int = 250):
    """Greedy shrink: keep any simplification that still fails.

    Candidates raising an invalid-input exception are skipped; already
    visited parameter sets are never retried, so the loop terminates
    even when float replacements are not strictly decreasing.
    """
    current = params
    seen = {json.dumps(params, sort_keys=True)}
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(current):
            key = json.dumps(candidate, sort_keys=True)
            if key in seen:
                continue
            seen.add(key)
            attempts += 1
            if attempts > max_attempts:
                break
            try:
                failures = evaluate_case(name, candidate)
            except _INVALID:
                continue
            if failures:
                current = candidate
                improved = True
                break
    return current


@dataclass(frozen=True)
class FuzzFailure:
    """One failing fuzz case, with its minimal shrunk form.

    Attributes:
        check: Property name.
        seed: Harness seed.
        index: Case index (``Random(f"{seed}:{index}")`` regenerates it).
        params: Parameters as generated.
        messages: Failure messages on the generated params.
        shrunk_params: Minimal failing params (None when not shrunk).
        shrunk_messages: Failure messages on the shrunk params.
    """

    check: str
    seed: int
    index: int
    params: object
    messages: tuple
    shrunk_params: object = None
    shrunk_messages: tuple = ()

    def case_json(self) -> str:
        target = (
            self.shrunk_params if self.shrunk_params is not None
            else self.params
        )
        return json.dumps(target, sort_keys=True)

    def repro_command(self) -> str:
        return (
            f"python -m repro.verify fuzz --property {self.check} "
            f"--case '{self.case_json()}'"
        )

    def describe(self) -> str:
        lines = [
            f"{self.check} failed (seed {self.seed}, case {self.index}):"
        ]
        lines.extend(f"  {message}" for message in self.messages[:6])
        if self.shrunk_params is not None:
            lines.append(f"  shrunk: {json.dumps(self.shrunk_params)}")
            lines.extend(
                f"  {message}" for message in self.shrunk_messages[:3]
            )
        lines.append(f"  repro: {self.repro_command()}")
        return "\n".join(lines)


#: Properties whose params describe a full simulator run — the ones a
#: failing case can be re-run with tracing enabled for.
_SIM_PROPERTIES = frozenset({"sim_differential", "sim_invariants"})


def write_failure_trace(failure: "FuzzFailure", directory) -> str | None:
    """Re-run a failing sim case with tracing; write a Chrome trace.

    The minimal (shrunk) params are used when available, so the trace
    shows the smallest workload that still reproduces the failure.
    Non-simulator properties (pareto, mapping, pacing...) have no
    command timeline and return None.  A case that crashes mid-run
    still gets its trace up to the crash point.
    """
    if failure.check not in _SIM_PROPERTIES:
        return None
    import pathlib

    from repro.obs import Observability

    params = (
        failure.shrunk_params
        if failure.shrunk_params is not None
        else failure.params
    )
    obs = Observability.create(trace=True)
    try:
        build_simulator(params, obs=obs).run()
    except Exception:
        pass
    path = pathlib.Path(directory) / (
        f"{failure.check}-seed{failure.seed}-case{failure.index}"
        ".trace.json"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    obs.trace.write(path)
    return str(path)


@dataclass
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    budget: int
    cases_run: int = 0
    cases_by_property: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        per_property = ", ".join(
            f"{name}: {count}"
            for name, count in sorted(self.cases_by_property.items())
        )
        status = "all passed" if self.ok else (
            f"{len(self.failures)} FAILED"
        )
        return (
            f"fuzz seed {self.seed}: {self.cases_run} cases "
            f"({per_property}) -> {status}"
        )


def run_fuzz(
    seed: int = 0,
    budget: int = 200,
    properties=None,
    shrink: bool = True,
    max_shrink_attempts: int = 250,
) -> FuzzReport:
    """Run ``budget`` generated cases round-robin over the properties.

    Args:
        seed: Master seed; case ``i`` uses ``Random(f"{seed}:{i}")``.
        budget: Total number of cases across all properties.
        properties: Property-name subset (default: all registered).
        shrink: Shrink failing cases to minimal repros.
        max_shrink_attempts: Candidate evaluations per shrink.
    """
    names = list(properties) if properties else [
        prop.name for prop in PROPERTIES
    ]
    for name in names:
        if name not in PROPERTY_BY_NAME:
            raise ConfigurationError(
                f"unknown property {name!r} "
                f"(choose from {sorted(PROPERTY_BY_NAME)})"
            )
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget}")
    report = FuzzReport(seed=seed, budget=budget)
    for index in range(budget):
        name = names[index % len(names)]
        rng = random.Random(f"{seed}:{index}")
        prop = PROPERTY_BY_NAME[name]
        params = prop.generate(rng)
        try:
            messages = evaluate_case(name, params)
        except _INVALID as error:
            messages = [f"generator produced an invalid case: {error}"]
        report.cases_run += 1
        report.cases_by_property[name] = (
            report.cases_by_property.get(name, 0) + 1
        )
        if not messages:
            continue
        shrunk_params = None
        shrunk_messages: tuple = ()
        if shrink:
            shrunk_params = shrink_case(
                name, params, max_attempts=max_shrink_attempts
            )
            try:
                shrunk_messages = tuple(
                    evaluate_case(name, shrunk_params)
                )
            except _INVALID:  # pragma: no cover - shrink guards this
                shrunk_params = None
        report.failures.append(
            FuzzFailure(
                check=name,
                seed=seed,
                index=index,
                params=params,
                messages=tuple(messages),
                shrunk_params=shrunk_params,
                shrunk_messages=shrunk_messages,
            )
        )
    return report
