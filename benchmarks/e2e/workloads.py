"""The benchmark workloads: seeded inputs, timed ops, output checks.

Each workload drives the program only through public entry points.  It
has one or more *phases*, each timing one kind of *op*; ``op_p50_s`` is
the geometric mean over the phases of each phase's median op time.  The
geometric mean weighs a phase by its relative change, not by its length,
so how large an op is made (a batch of hits, say) does not decide how
much a change to that phase moves the gated number.  The *item* is the
unit counted in ``attempted`` and ``failed``:

=============  ======================================  ================
workload       phase: op                               item
=============  ======================================  ================
paper          lot: one 12-die lot of E09's test       one die, or one
               flow, strict and retention-waived       claim check
sim_load       low, mid, high: one simulator run of    one simulation
               that system at one sub-seed
serve_explore  cold: 8 new explore jobs over HTTP;     one job
               warm: 40 repeated jobs (cache hits)
sweep_store    cold: a sweep into a fresh store and    one sweep point
               journal; warm: 96 re-runs reopening
               the filled store; resume: 256 replays
               of the complete journal; queue: the
               sweep on a fresh 2-worker work queue
=============  ======================================  ================

A loop *step* runs one op of each phase, except on ``serve_explore``,
where it boots a server and runs a whole pass of ops through it.  Every
op and every set-up is timed with :class:`meter.Meter`, so times are
normalised to the reference host speed.  Set-up is timed from a fresh
interpreter: ``serve_explore`` boots a server per pass and waits for a
warm-up job's result; the other workloads run probes that import their
entry modules and produce one first result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from meter import LoopbackReference, PythonReference
from repro.core.store import canonical_text

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]


def digest(document) -> str:
    """Short content fingerprint of a JSON-able document."""
    text = canonical_text(document)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Workload:
    """Shared bookkeeping; subclasses implement :meth:`step`.

    Attributes:
        golden: Expected digests by key, or None to run only the
            self-consistency checks (seeds other than 0).
        samples: Normalised seconds of each op, by phase.
        walls: Wall seconds of each op, by phase.
        setup_times: Normalised seconds of each timed set-up.
        setup_walls: Wall seconds of each timed set-up.
        detail: Finer samples reported in ``--out`` only.
        layer_extras: Workload-reported per-layer values.
        digests: Every fingerprint computed, by golden key.
    """

    name = ""
    phases: tuple = ()
    #: The fixed work every sample is normalised by (see ``meter.py``).
    reference = PythonReference
    #: Run slow untimed checks too (only ``paper`` has any).
    all_experiments = False
    #: Steps run in whole groups of this many (at least one group runs,
    #: however short ``--seconds`` is).
    step_group = 1
    #: Fresh-interpreter set-up probes before the timed loop.
    setup_probes = 5
    #: Python run by each set-up probe.
    setup_code = ""

    def __init__(self, seed, work_dir, tracer, meter, env, golden=None):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        self.meter = meter
        self.env = env
        self.golden = golden
        self.items = 0
        self.failed = 0
        self.errors: list = []
        self.samples: dict = {phase: [] for phase in self.phases}
        self.walls: dict = {phase: [] for phase in self.phases}
        self.setup_times: list = []
        self.setup_walls: list = []
        self.detail: dict = defaultdict(list)
        self.layer_extras: dict = {}
        self.digests: dict = {}

    @contextmanager
    def timed(self, phase: str):
        """Time one op of ``phase``, inside a root span when traced."""
        with self.meter.sample() as sample:
            with self.tracer.root(f"{self.name}.{phase}"):
                yield
        self.samples[phase].append(sample.norm_s)
        self.walls[phase].append(sample.wall_s)

    @contextmanager
    def timed_setup(self):
        with self.meter.sample() as sample:
            yield
        self.setup_times.append(sample.norm_s)
        self.setup_walls.append(sample.wall_s)

    def probe_setup(self) -> None:
        env = dict(self.env)
        env["PYTHONPATH"] += os.pathsep + str(BENCH_DIR)
        # No timeout: a timed wait polls in sleeps of up to 50 ms, which
        # would quantize the measurement.  The run's alarm bounds hangs.
        with self.timed_setup():
            subprocess.run(
                [sys.executable, "-c", self.setup_code],
                cwd=ROOT,
                env=env,
                check=True,
                stdout=subprocess.DEVNULL,
            )

    def prepare(self) -> None:
        """Untimed work before the loop (shims already installed, but
        outside any root span, so it is not traced either)."""

    def step(self, index: int) -> None:
        raise NotImplementedError

    def after_loop(self) -> None:
        """Untimed follow-up work (shims already removed)."""

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        self.errors.append(message)

    def check_digest(self, key: str, value: str) -> bool:
        """Pin ``value``: identical to any earlier value for ``key`` in
        this run and, with goldens loaded, to the golden one."""
        known = self.digests.setdefault(key, value)
        if known != value:
            self.errors.append(f"{key}: {value} differs from {known}")
            return False
        if self.golden is not None and self.golden.get(key) != value:
            self.errors.append(
                f"{key}: {value} differs from golden "
                f"{self.golden.get(key)}"
            )
            return False
        return True


#: E09's lot shape, scaled down: dies per lot and rotating lot seeds.
LOT_DIES = 12
LOT_SLOTS = 4
#: The experiments checked after the loop.  E09, whose two 400-die lots
#: outlast a run, is exercised by the lots themselves, and checked too
#: only when asked for (``--all-experiments``).
CHECKED_EXPERIMENTS = (
    "e01_interface_power",
    "e02_fill_frequency",
    "e03_granularity",
    "e04_feasibility",
    "e05_sustainable_bw",
    "e06_mpeg2",
    "e07_gap_iram",
    "e08_siemens_concept",
    "e10_design_space",
)


class Paper(Workload):
    """E09's Section 6 test flow, ~90% of ``run_all()``.

    A full ``run_all()`` (~18 s) outlasts a run, so one op is one lot of
    :data:`LOT_DIES` seeded dies run through ``TestFlow`` twice, strict
    and with retention-only fallout waived, as E09 runs its lots.  After
    the loop the other experiments run once, untimed, and their reports
    are checked.
    """

    name = "paper"
    phases = ("lot",)
    step_group = LOT_SLOTS  # every median weighs the lot seeds alike
    setup_code = (
        "from repro.experiments import e01_interface_power as e01; "
        "e01.run()"
    )

    def prepare(self) -> None:
        from repro.dft.flow import TestFlow

        # The first lots in a process run slower; warm up untimed.
        TestFlow(mean_faults_per_die=1.2).run_lot(LOT_DIES, seed=self.seed)

    def step(self, index: int) -> None:
        from repro.dft.flow import TestFlow

        slot = index % LOT_SLOTS
        lot_seed = LOT_SLOTS * self.seed + slot
        with self.timed("lot"):
            strict = TestFlow(mean_faults_per_die=1.2).run_lot(
                LOT_DIES, seed=lot_seed
            )
            waived = TestFlow(
                mean_faults_per_die=1.2, waive_retention_only=True
            ).run_lot(LOT_DIES, seed=lot_seed)
        self.detail["ms_per_die"].append(
            1000.0 * self.walls["lot"][-1] / (2 * LOT_DIES)
        )
        self.items += 2 * LOT_DIES
        for variant, lot in (("strict", strict), ("waived", waived)):
            counted = lot.perfect + lot.repaired + lot.scrap + lot.waived
            if counted != LOT_DIES:
                self.fail(LOT_DIES, f"lot {lot_seed} {variant}: {counted} dies")
            elif not self.check_digest(
                f"lot{slot}/{variant}", digest(dataclasses.asdict(lot))
            ):
                self.fail(LOT_DIES, f"lot {lot_seed} {variant} fingerprint")
        # E09's claims, which hold lot by lot: repair never lowers yield,
        # and waiving retention-only fallout never lowers it either.
        if (
            strict.waived
            or waived.perfect != strict.perfect
            or strict.yield_post_repair < strict.yield_pre_repair
            or waived.yield_post_repair < strict.yield_post_repair
        ):
            self.fail(2 * LOT_DIES, f"lot {lot_seed}: E09 claims fail")

    def after_loop(self) -> None:
        import importlib

        modules = CHECKED_EXPERIMENTS
        if self.all_experiments:
            modules += ("e09_test_cost",)
        for module_name in modules:
            module = importlib.import_module(
                f"repro.experiments.{module_name}"
            )
            report = module.run()
            checks = len(report.checks)
            self.items += checks
            broken = sum(1 for check in report.checks if not check.holds)
            if not self.check_digest(
                report.experiment_id, digest(dataclasses.asdict(report))
            ):
                self.fail(checks, f"{report.experiment_id} fingerprint")
            elif broken:
                self.fail(broken, f"{report.experiment_id} claims fail")


#: Simulated loads: (measured cycles, warm-up cycles) per level, sized
#: to take about a quarter second each on the reference host.
SIM_LEVELS = {
    "low": (500_000, 1_000),
    "mid": (3_500, 500),
    "high": (700, 200),
}


def build_system(level: str, seed: int):
    """One of the three seeded ``sim_load`` systems.

    All three run at the default :class:`SimulationConfig` apart from
    their lengths, so a change of default backend shows here.

    * ``low``: the E5-style display/video/CPU mix on four banks at a
      client rate of 0.001, where idle cycles dominate.
    * ``mid``: the MPEG2-decoder mix of :mod:`repro.obs.workloads` (five
      clients, 120% offered load) on a 16-Mbit macro.
    * ``high``: eight row-hit streams at rate 0.6 on eight banks, where
      almost every cycle issues or waits on a column command.
    """
    from repro.controller.controller import ControllerConfig, MemoryController
    from repro.dram.device import DRAMDevice
    from repro.dram.edram import EDRAMMacro
    from repro.dram.organizations import (
        AddressMapping,
        MappingScheme,
        Organization,
    )
    from repro.dram.timing import PC100_TIMING
    from repro.sim.simulator import MemorySystemSimulator, SimulationConfig
    from repro.traffic.client import ClientKind, MemoryClient
    from repro.traffic.patterns import (
        BlockPattern,
        RandomPattern,
        SequentialPattern,
    )
    from repro.units import MBIT

    cycles, warmup = SIM_LEVELS[level]
    base = 1_000 * seed
    if level == "low":
        org = Organization(
            n_banks=4, n_rows=2048, page_bits=4096, word_bits=16
        )
        device = DRAMDevice(organization=org, timing=PC100_TIMING)
        mapping = AddressMapping(organization=org)
        controller_config = ControllerConfig()
        quarter = org.total_words // 4
        clients = [
            MemoryClient(
                name="display",
                pattern=SequentialPattern(base=0, length=quarter),
                rate=0.001,
                kind=ClientKind.STREAM,
            ),
            MemoryClient(
                name="video",
                pattern=SequentialPattern(base=quarter, length=quarter),
                rate=0.001,
                read_fraction=0.7,
                kind=ClientKind.BLOCK,
                seed=base + 7,
            ),
            MemoryClient(
                name="cpu",
                pattern=RandomPattern(
                    base=0, length=org.total_words, seed=base + 3
                ),
                rate=0.001,
                read_fraction=0.6,
                kind=ClientKind.RANDOM,
                seed=base + 11,
            ),
        ]
    elif level == "mid":
        device = EDRAMMacro.build(
            size_bits=16 * MBIT, width=64, banks=8, page_bits=4096
        ).device()
        mapping = AddressMapping(
            device.organization, MappingScheme.ROW_BANK_COL
        )
        controller_config = ControllerConfig()
        total = device.organization.total_words
        frame = total // 4
        burst = device.timing.burst_length
        load = 1.2

        def blocks(origin):
            return BlockPattern(
                base=origin, width=720, height=256, block_w=16, block_h=16
            )

        clients = [
            MemoryClient(
                name="display",
                pattern=SequentialPattern(base=0, length=frame),
                rate=load * 0.35 / burst,
                kind=ClientKind.STREAM,
                seed=base + 1,
            ),
            MemoryClient(
                name="motion",
                pattern=blocks(frame),
                rate=load * 0.30 / burst,
                kind=ClientKind.BLOCK,
                seed=base + 2,
            ),
            MemoryClient(
                name="reconstruct",
                pattern=blocks(2 * frame),
                rate=load * 0.20 / burst,
                read_fraction=0.0,
                kind=ClientKind.BLOCK,
                seed=base + 3,
            ),
            MemoryClient(
                name="bitstream",
                pattern=SequentialPattern(base=3 * frame, length=frame // 4),
                rate=load * 0.05 / burst,
                kind=ClientKind.STREAM,
                seed=base + 4,
            ),
            MemoryClient(
                name="cpu",
                pattern=RandomPattern(base=0, length=total, seed=base + 5),
                rate=load * 0.10 / burst,
                read_fraction=0.6,
                kind=ClientKind.RANDOM,
                seed=base + 5,
            ),
        ]
    else:
        device = EDRAMMacro.build(
            size_bits=4 * MBIT, width=64, banks=8, page_bits=2048
        ).device()
        org = device.organization
        mapping = AddressMapping(org, MappingScheme.BANK_ROW_COL)
        controller_config = ControllerConfig(fifo_capacity=8, window_size=64)
        per_bank = org.total_words // org.n_banks
        clients = [
            MemoryClient(
                name=f"stream{bank}",
                pattern=SequentialPattern(
                    base=bank * per_bank, length=org.columns_per_page
                ),
                rate=0.6,
                read_fraction=0.7,
                kind=ClientKind.BLOCK,
                seed=base + 13 + bank,
            )
            for bank in range(org.n_banks)
        ]
    controller = MemoryController(
        device=device, mapping=mapping, config=controller_config
    )
    return MemorySystemSimulator(
        controller=controller,
        clients=clients,
        config=SimulationConfig(cycles=cycles, warmup_cycles=warmup),
    )


class SimLoad(Workload):
    """The simulator alone at three loads, three sub-seeds each."""

    name = "sim_load"
    phases = tuple(SIM_LEVELS)
    step_group = 3  # one step per sub-seed, so every median weighs them alike
    setup_code = (
        "import workloads\n"
        "for level in workloads.SIM_LEVELS:\n"
        "    workloads.build_system(level, 0)"
    )

    def prepare(self) -> None:
        # The first runs in a process run slower; warm up untimed.
        for level in SIM_LEVELS:
            build_system(level, 3 * self.seed).run()

    def step(self, index: int) -> None:
        from repro.verify.differential import result_fingerprint

        slot = index % 3
        sub_seed = 3 * self.seed + slot
        for level, (cycles, warmup) in SIM_LEVELS.items():
            simulator = build_system(level, sub_seed)
            with self.timed(level):
                result = simulator.run()
            self.detail[f"{level}_ns_per_cycle"].append(
                1e9 * self.walls[level][-1] / (cycles + warmup)
            )
            self.items += 1
            fingerprint = digest(result_fingerprint(result))
            if not self.check_digest(f"{slot}/{level}", fingerprint):
                self.fail(1, f"sim {level} sub-seed {sub_seed}")
            if slot == 0:
                prefix = f"controller.{level}"
                self.layer_extras.update(
                    {
                        f"{prefix}.requests_completed": (
                            result.requests_completed
                        ),
                        f"{prefix}.row_hit_rate": result.row_hit_rate,
                        f"{prefix}.refreshes": result.refreshes,
                    }
                )

    def after_loop(self) -> None:
        for level in SIM_LEVELS:
            self.layer_extras[f"sim.{level}.ns_per_cycle"] = statistics.median(
                self.detail[f"{level}_ns_per_cycle"]
            )


WARMUP_JOB = {
    "kind": "explore",
    "requirements": {
        "name": "bench warm-up",
        "capacity_mbit": 8,
        "bandwidth_gbit_s": 1.0,
    },
}


def explore_jobs(seed: int, count: int) -> list:
    """``count`` distinct seeded explore jobs; job 0 is the ``mpeg2``
    preset."""
    rng = random.Random(seed)
    jobs = [{"kind": "explore", "requirements": "mpeg2"}]
    for index in range(1, count):
        jobs.append(
            {
                "kind": "explore",
                "requirements": {
                    "name": f"app-{seed}-{index}",
                    "capacity_mbit": rng.choice((2, 4, 6, 8, 12, 16, 24, 32)),
                    "bandwidth_gbit_s": round(rng.uniform(0.2, 6.0), 3),
                    "locality": round(rng.uniform(0.3, 0.95), 2),
                },
            }
        )
    return jobs


class ServerProcess:
    """``python -m repro.serve serve --port 0`` as a child process."""

    def __init__(self, env, log_path: Path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--port", "0"],
            cwd=ROOT,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_url(self, timeout_s: float = 30.0) -> str:
        deadline = time.monotonic() + timeout_s
        marker = "listening on "
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8")
            if marker in text:
                return text.split(marker, 1)[1].split()[0]
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.002)
        raise RuntimeError("server did not report its address in time")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _scrape_job_ms(text: str) -> tuple:
    """``(sum, count)`` of the server's explore job-time summary."""
    from repro.obs.expo import parse_prometheus, sample_value

    parsed = parse_prometheus(text)
    total = sample_value(parsed, "repro_serve_job_ms_sum", workload="explore")
    count = sample_value(
        parsed, "repro_serve_job_ms_count", workload="explore"
    )
    return total or 0.0, count or 0


#: Rounds per served pass, and jobs per cold and per warm op.  A pass
#: runs ROUNDS x COLD_JOBS distinct jobs, well under the server's
#: default 256-entry result cache, so repeats measure hits, not
#: evictions.
ROUNDS = 6
COLD_JOBS = 8
WARM_JOBS = 40


class ServeExplore(Workload):
    """Explore jobs over HTTP from one closed-loop client.

    Each step boots a server (one set-up sample, ending with a warm-up
    job's result) and runs :data:`ROUNDS` rounds.  A round's cold op
    submits :data:`COLD_JOBS` jobs the server has not seen; its warm op
    repeats :data:`WARM_JOBS` seeded picks among the jobs already run
    in this pass.  Each job is timed from submit to its result bytes.
    Every pass runs the same stream on a fresh server, so cold jobs are
    cold again and must return the same bodies as in the first pass.
    """

    name = "serve_explore"
    phases = ("cold", "warm")
    reference = LoopbackReference  # jobs are mostly transport
    setup_probes = 0  # every server boot is a set-up sample

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.jobs = explore_jobs(self.seed, ROUNDS * COLD_JOBS)
        rng = random.Random(self.seed)
        self.warm_stream = [
            [
                rng.randrange((round_ + 1) * COLD_JOBS)
                for _ in range(WARM_JOBS)
            ]
            for round_ in range(ROUNDS)
        ]
        self.bodies: dict = {}
        self.server_totals: dict = defaultdict(float)

    def step(self, index: int) -> None:
        from repro.serve.client import ServeClient

        self.work_dir.mkdir(parents=True, exist_ok=True)
        server = None
        try:
            with self.timed_setup():
                server = ServerProcess(
                    self.env, self.work_dir / f"server{index}.log"
                )
                client = ServeClient(server.wait_url(), timeout_s=30.0)
                client.run(WARMUP_JOB, timeout_s=30.0)
            for round_ in range(ROUNDS):
                start = round_ * COLD_JOBS
                with self.timed("cold"):
                    for job_index in range(start, start + COLD_JOBS):
                        self._job(client, job_index, cold=True)
                with self.timed("warm"):
                    for job_index in self.warm_stream[round_]:
                        self._job(client, job_index, cold=False)
            if self.tracer.enabled:
                self._scrape(client)
        finally:
            if server is not None:
                server.stop()
        self._check_stream()

    def _job(self, client, job_index: int, cold: bool) -> None:
        started = time.perf_counter()
        try:
            submitted = client.submit(self.jobs[job_index])
            job_id = submitted["job_id"]
            final = client.wait(job_id, timeout_s=30.0)
            body = (
                client.result_bytes(job_id)
                if final["status"] == "done" else None
            )
        except Exception as error:  # a failed job is counted, not raised
            submitted, body = {}, None
            message = f"job {job_index}: {error!r}"
        else:
            message = f"job {job_index}: {final['status']}"
        self.detail["cold_job_s" if cold else "warm_job_s"].append(
            time.perf_counter() - started
        )
        self.items += 1
        if body is None:
            self.fail(1, message)
            return
        body_digest = hashlib.sha256(body).hexdigest()[:16]
        if cold:
            if submitted.get("cached") or submitted.get("coalesced_with"):
                self.fail(1, f"job {job_index}: a new job was not evaluated")
            elif self.bodies.setdefault(job_index, body_digest) != body_digest:
                self.fail(1, f"job {job_index}: body differs from a pass before")
        elif not submitted.get("cached"):
            self.fail(1, f"job {job_index}: a repeated job missed the cache")
        elif body_digest != self.bodies.get(job_index):
            self.fail(1, f"job {job_index}: warm body differs from cold")

    def _check_stream(self) -> None:
        if len(self.bodies) != len(self.jobs) or "stream" in self.digests:
            return
        self.check_digest("mpeg2", self.bodies[0])
        stream = digest([self.bodies[i] for i in range(len(self.jobs))])
        if not self.check_digest("stream", stream):
            self.fail(len(self.jobs), "served bodies differ from golden")

    def _scrape(self, client) -> None:
        stats = client.stats()
        job_ms_sum, job_ms_count = _scrape_job_ms(client.metrics_text())
        totals = self.server_totals
        totals["submitted"] += stats["submitted"]
        totals["evaluations"] += stats["evaluations"]
        totals["hits"] += stats["cache"]["hits"]
        totals["lookups"] += stats["cache"]["hits"] + stats["cache"]["misses"]
        totals["job_ms_sum"] += job_ms_sum
        totals["job_ms_count"] += job_ms_count

    def after_loop(self) -> None:
        totals = self.server_totals
        if not self.tracer.enabled or not totals["submitted"]:
            return
        self.layer_extras.update(
            {
                "server.job_ms_mean": (
                    totals["job_ms_sum"] / totals["job_ms_count"]
                    if totals["job_ms_count"] else 0.0
                ),
                "server.cache_hit_ratio": totals["hits"] / totals["lookups"],
                "server.evaluations_per_job": (
                    totals["evaluations"] / totals["submitted"]
                ),
            }
        )
        from repro.core.explorer import DesignSpaceExplorer
        from repro.serve.protocol import parse_job

        direct = []
        for job in self.jobs:
            requirements = parse_job(job).to_requirements()
            started = time.perf_counter()
            DesignSpaceExplorer(batch=True).explore(requirements)
            direct.append(time.perf_counter() - started)
        self.detail["explorer_direct_s"] = direct
        served = statistics.median(self.detail["cold_job_s"])
        self.layer_extras["serve.transport_protocol_pct"] = (
            100.0 * (served - statistics.median(direct)) / served
        )


#: The sweep every phase of ``sweep_store`` runs: points, cycles per
#: point, and the re-runs batched into one warm or resume op.
SWEEP_POINTS = 16
SWEEP_CYCLES = 500
WARM_REPEATS = 96
RESUME_REPEATS = 256


class SweepStore(Workload):
    """``Sweep.run(sim_fingerprint)`` over :data:`SWEEP_POINTS` seeded
    points, run four ways a step:

    * ``cold``: into a fresh store and journal, so the store writes;
    * ``warm``: the filled store reopened from its path and re-run, so
      the store reads;
    * ``resume``: a complete journal replayed;
    * ``queue``: on a fresh ``WorkQueueExecutor(workers=2)`` with a
      fresh store, worker start-up included.

    Every run's points must equal the serial reference run, and at seed
    0 the reference must match its golden fingerprint.
    """

    name = "sweep_store"
    phases = ("cold", "warm", "resume", "queue")
    setup_code = (
        "from repro.core.sweep import Sweep\n"
        "from repro.serve.workloads import sim_fingerprint\n"
        "sim_fingerprint(seed=0, cycles=500)"
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        from repro.core.sweep import Sweep

        self.sweep = Sweep(
            {
                "seed": [
                    10_000 * self.seed + point
                    for point in range(SWEEP_POINTS)
                ],
                "cycles": [SWEEP_CYCLES],
            }
        )
        self.reference = None
        self.store_path = self.work_dir / "store.jsonl"
        self.journal_path = self.work_dir / "journal.jsonl"

    def prepare(self) -> None:
        from repro.serve.workloads import sim_fingerprint

        result = self.sweep.run(sim_fingerprint)
        self.reference = [(p.parameters, p.result) for p in result]
        if not self.check_digest("sweep", digest(self.reference)):
            self.fail(SWEEP_POINTS, "serial sweep differs from golden")
        # Fill the store and the journal the warm and resume ops read.
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.check(self.sweep.run(sim_fingerprint, store=self.store_path))
        self.check(self.sweep.run(sim_fingerprint, journal=self.journal_path))

    def step(self, index: int) -> None:
        from repro.core.executor import WorkQueueExecutor
        from repro.core.store import ResultStore
        from repro.serve.workloads import sim_fingerprint

        directory = self.work_dir / f"step{index}"
        directory.mkdir(parents=True)
        results = []
        with self.timed("cold"):
            results.append(
                self.sweep.run(
                    sim_fingerprint,
                    store=directory / "store.jsonl",
                    journal=directory / "journal.jsonl",
                )
            )
        with self.timed("warm"):
            for _ in range(WARM_REPEATS):
                store = ResultStore(path=self.store_path)
                try:
                    results.append(self.sweep.run(sim_fingerprint, store=store))
                finally:
                    store.close()
        with self.timed("resume"):
            for _ in range(RESUME_REPEATS):
                results.append(
                    self.sweep.run(sim_fingerprint, journal=self.journal_path)
                )
        with self.timed("queue"):
            executor = WorkQueueExecutor(directory / "queue", workers=2)
            try:
                results.append(
                    self.sweep.run(
                        sim_fingerprint,
                        executor=executor,
                        store=directory / "queue-store.jsonl",
                    )
                )
            finally:
                executor.close()
        shutil.rmtree(directory, ignore_errors=True)
        for result in results:
            self.check(result)

    def check(self, result) -> None:
        self.items += SWEEP_POINTS
        if result.failures:
            self.fail(
                len(result.failures), f"{len(result.failures)} quarantined"
            )
        got = [(point.parameters, point.result) for point in result]
        wrong = sum(1 for a, b in zip(got, self.reference) if a != b)
        wrong += abs(len(got) - len(self.reference))
        if wrong:
            self.fail(wrong, f"{wrong} points differ from the serial run")


WORKLOADS = {
    workload.name: workload
    for workload in (Paper, SimLoad, ServeExplore, SweepStore)
}
