"""Named sweep workloads the service can run.

A workload is a plain python function of scalar keyword parameters
returning a JSON-able dict — exactly what :meth:`Sweep.run
<repro.core.sweep.Sweep.run>` calls per point.  The registry maps the
names clients put in ``job.workload`` to these functions, and exposes
each workload's accepted parameter names so the protocol layer can
reject a typoed axis *before* any evaluation runs.

Workloads must be deterministic in their parameters: the content-
addressed result cache serves a stored response for any identical job,
so a nondeterministic workload would make cache hits observably differ
from cold runs.  All built-ins are pinned (analytic evaluation, or
seeded simulation).

If a workload result dict carries an ``objectives`` list (values to
*minimize*), the service computes the Pareto frontier over the sweep's
successful points with :func:`repro.core.pareto.pareto_frontier` and
returns the frontier indices alongside the points.
"""

from __future__ import annotations

import inspect

from repro.errors import ConfigurationError
from repro.units import GBIT, MBIT

#: name -> callable(**scalar params) -> JSON-able dict
_WORKLOADS: dict = {}


def register_workload(name: str, fn, replace: bool = False) -> None:
    """Register a workload function under a client-visible name.

    Tests register throwaway workloads (slow, failing, counting); the
    built-ins below register themselves at import.
    """
    if not name:
        raise ConfigurationError("workload name required")
    if not replace and name in _WORKLOADS:
        raise ConfigurationError(f"workload {name!r} already registered")
    _WORKLOADS[name] = fn


def unregister_workload(name: str) -> None:
    """Remove a registered workload (test cleanup)."""
    _WORKLOADS.pop(name, None)


def has_workload(name: str) -> bool:
    return name in _WORKLOADS


def get_workload(name: str):
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(f"unknown workload {name!r}") from None


def workload_names() -> list:
    return sorted(_WORKLOADS)


def workload_parameters(name: str) -> tuple:
    """Keyword parameters a workload accepts (axis-name validation)."""
    fn = get_workload(name)
    signature = inspect.signature(fn)
    return tuple(signature.parameters)


# -- built-ins ---------------------------------------------------------------


def edram_tradeoff(
    size_mbit: float = 16.0,
    width: int = 64,
    banks: int = 4,
    page_bits: int = 2048,
    locality: float = 0.6,
    bandwidth_gbit_s: float = 2.0,
) -> dict:
    """Analytic power/area/cost/bandwidth of one eDRAM organization.

    The paper's central trade-off (Sections 3-5) as a sweepable point:
    requirements sized to the macro itself, bandwidth demand and
    locality from the axes.  ``objectives`` orders the minimization
    tuple (power, area, cost, -sustained bandwidth), so the service's
    Pareto pass reproduces the E10 frontier shape over any axes subset.
    """
    from repro.core.evaluator import Evaluator
    from repro.core.requirements import ApplicationRequirements
    from repro.dram.edram import EDRAMMacro

    macro = EDRAMMacro(
        size_bits=int(size_mbit * MBIT),
        width=width,
        banks=banks,
        page_bits=page_bits,
    )
    requirements = ApplicationRequirements(
        name="serve point",
        capacity_bits=macro.size_bits,
        sustained_bandwidth_bits_per_s=bandwidth_gbit_s * GBIT,
        locality=locality,
    )
    evaluator = Evaluator()
    metrics = evaluator.evaluate_macro(macro, requirements)
    feasible = evaluator.meets(metrics, requirements)
    return {
        "label": metrics.label,
        "feasible": feasible,
        "power_w": metrics.power_w,
        "area_mm2": metrics.area_mm2,
        "unit_cost": metrics.unit_cost,
        "mean_latency_ns": metrics.mean_latency_ns,
        "peak_bandwidth_gbit_s": metrics.peak_bandwidth_bits_per_s / GBIT,
        "sustained_bandwidth_gbit_s": (
            metrics.sustained_bandwidth_bits_per_s / GBIT
        ),
        "objectives": [
            metrics.power_w,
            metrics.area_mm2,
            metrics.unit_cost,
            -metrics.sustained_bandwidth_bits_per_s,
        ],
    }


#: Moderate per-client rate of the baseline simulation: enough traffic
#: to exercise every bank, low enough that the system stays stable.
BASELINE_CLIENT_RATE = 0.05


def build_baseline_simulator(cycles: int, warmup_cycles: int, seed: int):
    """The baseline simulated system: 3 clients on a 4-bank device.

    A display stream, a video block client and a CPU random client
    share a PC100 device behind the stock controller.  Everything is
    pinned by ``(cycles, warmup_cycles, seed)``: re-runs are
    bit-identical.  Imports stay local: loading this module (the
    service does) must not load the simulator.
    """
    from repro.controller.controller import MemoryController
    from repro.dram.device import DRAMDevice
    from repro.dram.organizations import AddressMapping, Organization
    from repro.dram.timing import PC100_TIMING
    from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
    from repro.traffic.client import ClientKind, MemoryClient
    from repro.traffic.patterns import RandomPattern, SequentialPattern

    org = Organization(n_banks=4, n_rows=2048, page_bits=4096, word_bits=16)
    controller = MemoryController(
        device=DRAMDevice(organization=org, timing=PC100_TIMING),
        mapping=AddressMapping(organization=org),
    )
    quarter = org.total_words // 4
    clients = [
        MemoryClient(
            name="display",
            pattern=SequentialPattern(base=0, length=quarter),
            rate=BASELINE_CLIENT_RATE,
            kind=ClientKind.STREAM,
        ),
        MemoryClient(
            name="video",
            pattern=SequentialPattern(base=quarter, length=quarter),
            rate=BASELINE_CLIENT_RATE,
            read_fraction=0.7,
            kind=ClientKind.BLOCK,
            seed=seed + 7,
        ),
        MemoryClient(
            name="cpu",
            pattern=RandomPattern(
                base=0, length=org.total_words, seed=seed + 3
            ),
            rate=BASELINE_CLIENT_RATE,
            read_fraction=0.6,
            kind=ClientKind.RANDOM,
            seed=seed + 11,
        ),
    ]
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(cycles=cycles, warmup_cycles=warmup_cycles),
    )


def sim_fingerprint(seed: int = 0, cycles: int = 1_000) -> tuple:
    """Seeded baseline simulation reduced to its result fingerprint.

    Work-queue workers unpickle task functions *by reference*
    (``module.qualname``), so anything swept through
    :class:`~repro.core.executor.WorkQueueExecutor` must live in an
    importable module — not a benchmark script or ``__main__``.  This
    is that workload: the distributed bench and the CI smoke sweep it
    and compare fingerprints bit-for-bit against a serial run.
    """
    from repro.verify.differential import result_fingerprint

    simulator = build_baseline_simulator(
        cycles=cycles, warmup_cycles=max(1, cycles // 8), seed=seed
    )
    return result_fingerprint(simulator.run())


register_workload("edram_tradeoff", edram_tradeoff)
register_workload("sim_fingerprint", sim_fingerprint)
