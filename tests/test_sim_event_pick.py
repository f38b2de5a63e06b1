"""Per-cycle oracle for the event engine's fused FR-FCFS pick.

The event engine issues request commands through one pass over the
window (``EventEngine._pick``) instead of the controller's candidate
scan (``Scheduler.candidates`` → ``_next_command`` →
``DRAMDevice.can_issue``).  These tests drive the naive cycle loop and,
on every cycle it reaches the request-command phase, run the pick on
the very same state.  The pick must choose the request the scan issues
(or, like the scan, none), and when neither issues its earliest cycle
must lie in the future and must not be later than the cycle the scan
next issues at while nothing else changed in between.

The corpus is the widened fuzz corpus (both schedulers, all three page
policies, windows up to 64) plus short runs of the three e2e
``sim_load`` systems, built by the benchmark's own builder.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from repro.sim import EventEngine
from repro.sim.simulator import MemorySystemSimulator
from repro.verify import fuzz

E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _check_picks(simulator) -> dict:
    """Run ``simulator`` on the naive loop, checking the pick each cycle.

    Returns counts of cycles where both chose a request (``picked``)
    and where both chose none (``idle``).
    """
    assert simulator.config.backend == "cycle"
    engine = EventEngine(simulator)
    controller = simulator.controller
    device = simulator.device
    scan = controller._issue_request_command
    issue_for = controller._issue_for
    counts = {"picked": 0, "idle": 0}
    issued = []
    # (earliest, window ids, device command count) of the last idle
    # cycle: while window and device are untouched, the scan may not
    # issue before that earliest cycle.
    idle_state = None

    def record_issue(request, cycle):
        issued.append(request)
        issue_for(request, cycle)

    def checked_scan(cycle):
        nonlocal idle_state
        window_ids = [request.request_id for request in controller.window]
        commands_before = device.commands_issued
        picked, earliest = engine._pick(cycle)
        issued.clear()
        scan(cycle)
        chosen = issued[0] if issued else None
        assert picked is chosen, (
            f"cycle {cycle}: pick chose "
            f"{getattr(picked, 'request_id', None)}, the scan issued "
            f"{getattr(chosen, 'request_id', None)}"
        )
        if chosen is None:
            assert earliest > cycle, (cycle, earliest)
            counts["idle"] += 1
            idle_state = (earliest, window_ids, commands_before)
            return
        counts["picked"] += 1
        if idle_state is not None:
            before, ids, commands = idle_state
            if ids == window_ids and commands == commands_before:
                assert cycle >= before, (
                    f"earliest {before} is later than the scan's "
                    f"issue at cycle {cycle}"
                )
        idle_state = None

    controller._issue_for = record_issue
    controller._issue_request_command = checked_scan
    simulator.run()
    return counts


#: Short (measured, warm-up) lengths of the e2e ``sim_load`` systems.
SIM_LOAD_LENGTHS = {
    "low": (20_000, 1_000),
    "mid": (1_500, 300),
    "high": (500, 100),
}


def _sim_load_system(level: str) -> MemorySystemSimulator:
    """A short naive-loop run of one e2e ``sim_load`` system (sub-seed 0),
    built by the benchmark's own ``build_system``."""
    sys.path.insert(0, str(E2E_DIR))
    try:
        import workloads
    finally:
        sys.path.remove(str(E2E_DIR))
    simulator = workloads.build_system(level, 0)
    cycles, warmup = SIM_LOAD_LENGTHS[level]
    simulator.config = dataclasses.replace(
        simulator.config, cycles=cycles, warmup_cycles=warmup, backend="cycle"
    )
    return simulator


def test_pick_matches_scan_on_fuzz_corpus():
    """Both schedulers, all page policies, windows up to 64."""
    totals = {"picked": 0, "idle": 0}
    kinds = set()
    for index in range(40):
        params = fuzz.gen_sim_case(random.Random(f"event-pick:{index}"))
        kinds.add((params["scheduler"], params["page_policy"]))
        counts = _check_picks(fuzz.build_simulator(params, backend="cycle"))
        for key in totals:
            totals[key] += counts[key]
    assert len(kinds) == 6, kinds
    assert totals["picked"] > 1_000 and totals["idle"] > 1_000, totals


def test_pick_matches_scan_deep_windows():
    """64-deep windows, where most requests are neither the oldest of
    their bank nor row hits."""
    totals = {"picked": 0, "idle": 0}
    for index in range(6):
        params = fuzz.gen_sim_case(random.Random(f"event-pick-deep:{index}"))
        params["controller"]["window_size"] = 64
        params["controller"]["fifo_capacity"] = 8
        for client in params["clients"]:
            client["rate"] = 0.9
        counts = _check_picks(fuzz.build_simulator(params, backend="cycle"))
        for key in totals:
            totals[key] += counts[key]
    assert totals["picked"] > 300, totals


@pytest.mark.parametrize("level", ["low", "mid", "high"])
def test_pick_matches_scan_on_sim_load_systems(level):
    counts = _check_picks(_sim_load_system(level))
    assert counts["picked"] > 50, counts
