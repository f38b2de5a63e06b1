"""A fresh process loads only the modules its first result needs.

Each check runs in a new interpreter and compares module sets, not
wall time, so it is deterministic.  The worker cold path is the
``sweep_store`` set-up probe (a ``Sweep`` import plus one
``sim_fingerprint`` point) followed by the queue worker's import: what
external workers (``python -m repro.core.worker``) and set-up probes
pay.  The executor's own local workers are forks of the coordinator
and start with its modules already loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from tests.test_package_exports import PACKAGES

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

WORKER_COLD_PATH = (
    "from repro.core.sweep import Sweep\n"
    "from repro.serve.workloads import sim_fingerprint\n"
    "sim_fingerprint(seed=0, cycles=500)\n"
    "import repro.core.worker\n"
)

#: Modules the worker cold path must not load: the explorer stack, the
#: service, the DFT/fuzz/fault-injection code and the process pool.
NOT_ON_WORKER_PATH = (
    "repro.core.explorer",
    "repro.core.evaluator",
    "repro.core.batch",
    "repro.core.pareto",
    "repro.serve.server",
    "repro.serve.handlers",
    "repro.serve.client",
    "repro.dft.march",
    "repro.dft.flow",
    "repro.verify.fuzz",
    "repro.inject",
    "repro.dft.faults",
    "http.server",
    "multiprocessing",
)


def loaded_modules(code: str) -> set:
    """``sys.modules`` of a fresh interpreter after it runs ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_worker_cold_path_skips_unused_subsystems():
    modules = loaded_modules(WORKER_COLD_PATH)
    assert "repro.core.worker" in modules
    assert sorted(modules & set(NOT_ON_WORKER_PATH)) == []
    experiments = [m for m in modules if m.startswith("repro.experiments")]
    assert experiments == []


def test_one_experiment_loads_no_other():
    modules = loaded_modules(
        "from repro.experiments import e01_interface_power\n"
    )
    experiments = {m for m in modules if m.startswith("repro.experiments.")}
    assert experiments == {"repro.experiments.e01_interface_power"}


def test_package_inits_import_nothing():
    imports = "".join(f"import {package}\n" for package in PACKAGES)
    modules = loaded_modules(imports)
    loaded = {m for m in modules if m.startswith("repro")}
    assert sorted(loaded - {*PACKAGES, "repro._exports"}) == []
