"""Tests for the Table I synthetic workload."""

import pytest

from repro.baselines import NullCaptureClient
from repro.device import A8M3, Device
from repro.simkernel import Environment
from repro.workloads import (
    PAPER_ATTRIBUTE_COUNTS,
    PAPER_TASK_DURATIONS,
    SyntheticWorkloadConfig,
    paper_workload_grid,
    synthetic_workload,
)


def run_null(config, seed=0):
    env = Environment()
    dev = Device(env, A8M3)
    client = NullCaptureClient(dev)
    result = {}
    import numpy as np

    env.process(synthetic_workload(env, client, config,
                                   rng=np.random.default_rng(seed), result=result))
    env.run()
    return env, client, result


def test_paper_grid_has_eight_configs():
    grid = paper_workload_grid()
    assert len(grid) == 8
    assert {c.attributes_per_task for c in grid} == set(PAPER_ATTRIBUTE_COUNTS)
    assert {c.task_duration_s for c in grid} == set(PAPER_TASK_DURATIONS)


def test_task_and_record_counts():
    config = SyntheticWorkloadConfig(number_of_tasks=20, task_duration_s=0.01,
                                     duration_jitter=0.0)
    env, client, result = run_null(config)
    assert result["tasks"] == 20
    # 2 per task + workflow begin/end
    assert result["records"] == 42
    assert client.records_captured.count == 42


def test_elapsed_matches_nominal_without_jitter():
    config = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.5,
                                     duration_jitter=0.0)
    env, client, result = run_null(config)
    assert result["elapsed"] == pytest.approx(5.0)
    assert config.nominal_duration_s() == 5.0


def test_jitter_produces_run_to_run_variance():
    config = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.5,
                                     duration_jitter=0.01)
    elapsed = {run_null(config, seed=s)[2]["elapsed"] for s in range(3)}
    assert len(elapsed) == 3  # three distinct durations
    for e in elapsed:
        assert e == pytest.approx(5.0, rel=0.05)


def test_tasks_split_across_transformations():
    config = SyntheticWorkloadConfig(number_of_tasks=100, chained_transformations=5)
    assert config.tasks_per_transformation == 20


def test_attribute_kinds():
    import numpy as np

    from repro.capture import create_client
    from repro.core import CallableBackend, ProvLightServer
    from repro.net import Network

    for kind, check in [("int", lambda v: v == [1] * 5), ("float", lambda v: all(isinstance(x, float) for x in v))]:
        env = Environment()
        net = Network(env, seed=1)
        dev = Device(env, A8M3)
        net.add_host("edge", device=dev)
        net.add_host("cloud")
        net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.001)
        sink = []
        server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
        client = create_client(dev, server.endpoint, "t")
        config = SyntheticWorkloadConfig(number_of_tasks=5, task_duration_s=0.01,
                                         attributes_per_task=5, attribute_kind=kind)

        def scenario(env, client=client, server=server, config=config):
            yield from server.pool.attach("#")
            yield from synthetic_workload(env, client, config)
            yield env.timeout(30)

        env.process(scenario(env))
        env.run()
        inputs = [r for r in sink if r.get("type") == "task" and r["status"] == "RUNNING"]
        assert check(inputs[0]["datasets"][0]["elements"]["in"])


def test_dependency_chain_links_consecutive_tasks():
    from repro.capture import create_client
    from repro.core import CallableBackend, ProvLightServer
    from repro.net import Network

    env = Environment()
    net = Network(env, seed=1)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.001)
    sink = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
    client = create_client(dev, server.endpoint, "t")
    config = SyntheticWorkloadConfig(number_of_tasks=4, chained_transformations=2,
                                     task_duration_s=0.01)

    def scenario(env):
        yield from server.pool.attach("#")
        yield from synthetic_workload(env, client, config)
        yield env.timeout(30)

    env.process(scenario(env))
    env.run()
    begins = [r for r in sink if r.get("type") == "task" and r["status"] == "RUNNING"]
    assert begins[0]["dependencies"] == []
    for prev, cur in zip(begins, begins[1:]):
        assert cur["dependencies"] == [prev["task_id"]]


def test_with_helper_creates_modified_copy():
    base = SyntheticWorkloadConfig()
    changed = base.with_(task_duration_s=3.5)
    assert changed.task_duration_s == 3.5
    assert base.task_duration_s == 0.5
