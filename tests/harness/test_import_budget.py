"""What a capture run imports: neither scipy, networkx nor sqlite3, and of
``repro`` only the modules it runs.

``scipy.stats`` loads only when a paper table computes a confidence
interval (``mean_ci``), and routing is a plain Dijkstra, so neither
library is on the import path of a capture run: together they would add
about 0.8–0.95 s of start-up (``scipy.stats`` 0.68–0.85 s and networkx
0.11 s once numpy is loaded, measured with ``python -X importtime`` and
no bytecode cache on a 2-vCPU x86-64 VM) and 85 MiB of resident memory
to every process.  The durable capture journal is a plain framed file,
so not even a durable run with device churn loads ``sqlite3`` (about 1
MiB).

Every ``repro`` package exports lazily (:mod:`repro._lazy`), and the
harness imports the baselines, the chaos stack and continuum topologies
only for a setup that names them.  So an MQTT-SN fan-in run on the star
compiles none of the modules in ``NOT_IN_A_FANIN_RUN``, and it imports
nothing of ``repro`` after its :class:`ExperimentSetup` is built: no
compile time lands inside the timed run.
"""

import functools
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

CAPTURE_RUN = """
import sys

import repro
import repro.harness.experiments
from repro.harness import ExperimentSetup, run_capture_experiment
from repro.metrics import relative_overhead
from repro.net import ContinuumTopology, Network
from repro.simkernel import Environment
from repro.workloads import SyntheticWorkloadConfig

outcome = run_capture_experiment(
    ExperimentSetup(system="provlight", n_devices=2),
    SyntheticWorkloadConfig(number_of_tasks=5, task_duration_s=0.1,
                            attributes_per_task=10),
    seed=1,
)
assert outcome.backend_records > 0
relative_overhead(outcome.mean_elapsed, 0.5)

churned = run_capture_experiment(  # durable: every record goes through a journal
    ExperimentSetup(system="provlight", n_devices=3, qos=1, group_size=0,
                    chaos="churn@2:0.4:1"),
    SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.5,
                            attributes_per_task=10),
    seed=1,
)
assert churned.fleet_stats["devices_restarted"] > 0

net = Network(Environment())
net.add_host("cloud")
ContinuumTopology(net, "edge:4:wan-fog,fog:2:wan-fog,cloud:1", root_host="cloud")
assert net.route("edge-0", "cloud") == ["edge-0", "fog-0", "cloud"]

print(" ".join(m for m in ("scipy", "networkx", "sqlite3") if m in sys.modules))
"""

#: the benchmark's fan-in workload, shrunk: 4 ungrouped QoS-2 MQTT-SN
#: devices on the star, each record its own publish
FANIN_RUN = """
import json
import sys

from repro.harness.experiments import ExperimentSetup, run_capture_experiment
from repro.workloads import SyntheticWorkloadConfig

setup = ExperimentSetup(n_devices=4, bandwidth="1Gbit", delay="23ms",
                        group_size=0, qos=2, translator_workers=8)
config = SyntheticWorkloadConfig(number_of_tasks=10, attributes_per_task=100,
                                 task_duration_s=0.5)
before = set(sys.modules)
outcome = run_capture_experiment(setup, config, seed=1)
assert outcome.backend_records > 0
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith("repro")),
    "run_imported": sorted(m for m in set(sys.modules) - before
                           if m.startswith("repro")),
}))
"""

#: modules (and everything under them) a fan-in run has no use for
NOT_IN_A_FANIN_RUN = (
    "repro.net.chaos",
    "repro.net.continuum",
    "repro.net.fleet",
    "repro.net.faults",
    "repro.http",
    "repro.coap",
    "repro.harness.tables",
    "repro.harness.relations",
    "repro.harness.figures",
    "repro.harness.runner",
    "repro.simkernel.debug",
    "repro.workloads.federated",
    "repro.workloads.imaging",
    "repro.workloads.sensors",
    "repro.dfanalyzer.queries",
    "repro.core.provdm",
    "repro.core.security",
)


def _run(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.lru_cache(maxsize=None)
def modules_a_capture_run_loads():
    """Which of the watched modules a fresh interpreter running
    ``CAPTURE_RUN`` has loaded at its end."""
    return _run(CAPTURE_RUN).split()


@functools.lru_cache(maxsize=None)
def fanin_run_imports():
    """``{"loaded": ..., "run_imported": ...}`` of a fresh interpreter
    running ``FANIN_RUN``."""
    return json.loads(_run(FANIN_RUN))


def test_capture_run_loads_neither_scipy_nor_networkx():
    loaded = modules_a_capture_run_loads()
    assert "scipy" not in loaded and "networkx" not in loaded, loaded


def test_durable_capture_run_loads_no_sqlite3():
    assert "sqlite3" not in modules_a_capture_run_loads()


def test_fanin_run_loads_only_the_modules_it_runs():
    loaded = fanin_run_imports()["loaded"]
    unused = [
        m for m in loaded
        if any(m == name or m.startswith(name + ".") for name in NOT_IN_A_FANIN_RUN)
    ]
    assert unused == [], unused


def test_fanin_run_imports_nothing_once_its_setup_is_built():
    assert fanin_run_imports()["run_imported"] == []
