"""A capture run imports neither scipy nor networkx, nor sqlite3.

``scipy.stats`` loads only when a paper table computes a confidence
interval (``mean_ci``), and routing is a plain Dijkstra, so neither
library is on the import path of a capture run: together they would add
about 0.7 s of start-up and 80 MiB of resident memory to every process.
The durable capture journal is a plain framed file, so not even a
durable run with device churn loads ``sqlite3`` (about 1 MiB).
"""

import functools
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


@functools.lru_cache(maxsize=None)
def modules_a_capture_run_loads():
    """Which of the watched modules a fresh interpreter running
    ``CAPTURE_RUN`` has loaded at its end."""
    proc = subprocess.run(
        [sys.executable, "-c", CAPTURE_RUN], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_capture_run_loads_neither_scipy_nor_networkx():
    loaded = modules_a_capture_run_loads()
    assert "scipy" not in loaded and "networkx" not in loaded, loaded


def test_durable_capture_run_loads_no_sqlite3():
    assert "sqlite3" not in modules_a_capture_run_loads()
