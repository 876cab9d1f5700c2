"""The benchmark's workloads: four capture pipelines taken from the paper's tables.

Every workload is a closed loop: each device's workflow issues its next
capture call only after the previous one returns, with a fixed task
duration between calls.  A workload is plain data (``ExperimentSetup`` and
``SyntheticWorkloadConfig`` fields) so the orchestrating process never
imports the program; :func:`experiment` builds the real objects inside a
measured run.

Every field the harness would otherwise read from a ``REPRO_*`` environment
variable is pinned here, so the environment cannot retarget the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Workload", "WORKLOADS", "experiment"]

#: ExperimentSetup fields with an environment-variable default
_PINNED = {
    "broker_shards": 1,
    "broker_placement": "hash",
    "pool_min": None,
    "pool_max": None,
    "chaos": None,
    "topology": None,
}

#: the lossy-wireless preset's shape, on clean WAN uplinks
_DURABLE_TOPOLOGY = "edge:32:wan-fog,fog:4:wan-fog,cloud:1"


@dataclass(frozen=True)
class Workload:
    name: str
    #: ExperimentSetup fields (system is always provlight)
    setup: Dict[str, Any]
    #: SyntheticWorkloadConfig fields
    config: Dict[str, Any]
    #: seeds S..S+seeds-1 run back to back in one measured run
    seeds: int
    #: overrides of setup/config/seeds for the smoke copy the tests run
    smoke: Dict[str, Any] = field(default_factory=dict)

    def shrunk(self) -> "Workload":
        """A copy small enough for the test suite, on the same mechanisms."""
        smoke = dict(self.smoke)
        return Workload(
            name=self.name,
            setup={**self.setup, **smoke.pop("setup", {})},
            config={**self.config, **smoke.pop("config", {})},
            seeds=smoke.pop("seeds", self.seeds),
        )

    @property
    def devices(self) -> int:
        return self.setup["n_devices"]


#: why each workload was chosen is recorded in BENCHMARK.json and README.md
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fanin-64",
            setup=dict(n_devices=64, bandwidth="1Gbit", delay="23ms",
                       group_size=0, qos=2, translator_workers=8),
            config=dict(number_of_tasks=40, attributes_per_task=100,
                        task_duration_s=0.5),
            seeds=1,
            smoke=dict(setup=dict(n_devices=4), config=dict(number_of_tasks=10)),
        ),
        Workload(
            name="edge-grouped",
            setup=dict(n_devices=1, bandwidth="25Kbit", delay="23ms",
                       group_size=50, qos=2),
            config=dict(number_of_tasks=100, attributes_per_task=100,
                        task_duration_s=0.5),
            seeds=60,
            smoke=dict(config=dict(number_of_tasks=20), seeds=3,
                       setup=dict(group_size=10)),
        ),
        Workload(
            name="durable-churn",
            # the storm starts after set-up: on the lossy-wireless preset,
            # 14 of 100 seeds lose every CONNECT/REGISTER retry of some
            # device and the run aborts
            setup=dict(n_devices=32, topology=_DURABLE_TOPOLOGY, group_size=0,
                       qos=1, chaos="churn@10:0.2:2,degrade-tier:edge-fog@16:6:0.2"),
            config=dict(number_of_tasks=60, attributes_per_task=10,
                        task_duration_s=0.5),
            seeds=1,
            smoke=dict(setup=dict(n_devices=5, chaos="churn@2:0.4:1,"
                                  "degrade-tier:edge-fog@4:2:0.2"),
                       config=dict(number_of_tasks=15)),
        ),
        Workload(
            name="http-fanin",
            setup=dict(n_devices=16, bandwidth="1Gbit", delay="23ms",
                       transport="http", group_size=0),
            config=dict(number_of_tasks=100, attributes_per_task=100,
                        task_duration_s=0.5),
            seeds=2,
            smoke=dict(setup=dict(n_devices=3), config=dict(number_of_tasks=10),
                       seeds=1),
        ),
    )
}


def experiment(workload: Workload):
    """``(ExperimentSetup, SyntheticWorkloadConfig)`` of ``workload``."""
    from repro.harness.experiments import ExperimentSetup
    from repro.workloads import SyntheticWorkloadConfig

    setup = ExperimentSetup(system="provlight", **{**_PINNED, **workload.setup})
    return setup, SyntheticWorkloadConfig(**workload.config)
