"""A run is a value: it depends only on its setup, its workload config
and its seed.

Neither the process environment nor what the process ran before reaches
a run.  Default MQTT-SN client ids are numbered per run, so a seed
replays the same bytes and the same packet timing as the second or the
hundredth run of a process as it does as the first.
"""

from repro.harness import ExperimentSetup, run_capture_experiment
from repro.workloads import SyntheticWorkloadConfig

FAST = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.1,
                               attributes_per_task=10)


def test_a_run_repeats_exactly_with_another_run_in_between():
    """Run A, then B (nine more capture clients), then A again: both
    runs of A give the same elapsed times, per-device metrics and
    backend record count."""
    a = ExperimentSetup(n_devices=2, qos=1, group_size=0)
    b = ExperimentSetup(n_devices=9, bandwidth="25Kbit")
    first = run_capture_experiment(a, FAST, seed=3)
    run_capture_experiment(b, FAST, seed=4)
    again = run_capture_experiment(a, FAST, seed=3)
    assert again == first


def test_the_environment_does_not_reach_a_setup(monkeypatch):
    for var, value in {
        "REPRO_BROKER_SHARDS": "3", "REPRO_BROKER_PLACEMENT": "p2c",
        "REPRO_POOL_MIN": "2", "REPRO_POOL_MAX": "4",
        "REPRO_CHAOS": "kill-shard@1", "REPRO_TOPOLOGY": "wan-fog",
        "REPRO_CAPTURE_TRANSPORT": "coap",
    }.items():
        monkeypatch.setenv(var, value)
    setup = ExperimentSetup()
    assert setup.chaos is None
    assert (setup.broker_shards, setup.broker_placement) == (1, "hash")
    assert (setup.pool_min, setup.pool_max, setup.topology) == (None, None, None)
    assert setup.transport == "mqttsn"
