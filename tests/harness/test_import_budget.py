"""A capture run imports neither scipy nor networkx.

``scipy.stats`` loads only when a paper table computes a confidence
interval (``mean_ci``), and routing is a plain Dijkstra, so neither
library is on the import path of a capture run: together they would add
about 0.7 s of start-up and 80 MiB of resident memory to every process.
"""

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

net = Network(Environment())
net.add_host("cloud")
ContinuumTopology(net, "edge:4:wan-fog,fog:2:wan-fog,cloud:1", root_host="cloud")
assert net.route("edge-0", "cloud") == ["edge-0", "fog-0", "cloud"]

print(",".join(m for m in ("scipy", "networkx") if m in sys.modules))
"""


def test_capture_run_loads_neither_scipy_nor_networkx():
    proc = subprocess.run(
        [sys.executable, "-c", CAPTURE_RUN], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
