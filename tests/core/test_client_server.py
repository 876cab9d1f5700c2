"""Integration tests: ProvLight client -> broker -> translator -> backend."""

import pytest

from repro.core import (
    CallableBackend,
    Data,
    ProvLightClient,
    ProvLightServer,
    ServerConfig,
    Task,
    Workflow,
)
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.net import Network
from repro.simkernel import Environment


def make_world(group_size=0, compress=True, bandwidth=1e9, latency=0.023):
    env = Environment()
    net = Network(env, seed=2)
    edge_dev = Device(env, A8M3, name="edge-dev")
    cloud_dev = Device(env, XEON_GOLD_5220, name="cloud-dev")
    net.add_host("edge", device=edge_dev)
    net.add_host("cloud", device=cloud_dev)
    net.connect("edge", "cloud", bandwidth_bps=bandwidth, latency_s=latency)
    sink = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
    client = ProvLightClient(
        edge_dev, server.endpoint, "provlight/edge/data",
        group_size=group_size, compress=compress,
    )
    return env, net, edge_dev, server, client, sink


def run_workflow(env, client, n_tasks=4, attrs=10, task_duration=0.05, drain=True):
    result = {}

    def proc(env):
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()
        t0 = env.now
        previous = []
        for i in range(n_tasks):
            task = Task(i, workflow, transformation_id=0, dependencies=previous)
            d_in = Data(f"in{i}", workflow.id, {"in": [1.0] * attrs})
            yield from task.begin([d_in])
            yield env.timeout(task_duration)
            d_out = Data(f"out{i}", workflow.id, {"out": [2.0] * attrs},
                         derivations=[f"in{i}"])
            yield from task.end([d_out])
            previous = [task.id]
        result["workflow_elapsed"] = env.now - t0
        yield from workflow.end(drain=drain)

    env.process(proc(env))
    return result


def test_records_flow_end_to_end():
    env, net, dev, server, client, sink = make_world()
    done = {}

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        run = run_workflow(env, client, n_tasks=3)
        yield env.timeout(60)
        done.update(run)

    env.process(scenario(env))
    env.run()
    # workflow begin/end + 3 x (task begin + task end) = 8 records
    types = [r["type"] for r in sink]
    assert types.count("dataflow") == 2
    assert types.count("task") == 6
    assert server.records_ingested.total == 8


def test_records_flow_end_to_end_through_sharded_broker_plane():
    """Same capture pipeline, 4 broker shards behind the one endpoint:
    the devices and the translator pool notice nothing, every record
    still lands in the backend (cross-shard relays included — the
    wildcard translator is homed on one shard, devices on others)."""
    env = Environment()
    net = Network(env, seed=2)
    cloud_dev = Device(env, XEON_GOLD_5220, name="cloud-dev")
    net.add_host("cloud", device=cloud_dev)
    sink = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(sink.extend),
        config=ServerConfig(broker_shards=4),
    )
    clients = []
    for i in range(3):
        dev = Device(env, A8M3, name=f"edge-dev-{i}")
        net.add_host(f"edge-{i}", device=dev)
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.023)
        clients.append(
            ProvLightClient(dev, server.endpoint, f"provlight/edge-{i}/data")
        )

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        for client in clients:
            run_workflow(env, client, n_tasks=3)
        yield env.timeout(60)

    env.process(scenario(env))
    env.run()
    # per device: workflow begin/end + 3 x (task begin + end) = 8 records
    assert server.records_ingested.total == 24
    types = [r["type"] for r in sink]
    assert types.count("dataflow") == 6
    assert types.count("task") == 18
    assert server.broker.delivery_failures.count == 0
    assert len(server.broker.shards) == 4


def test_task_records_carry_attributes_and_lineage():
    env, net, dev, server, client, sink = make_world()

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        run_workflow(env, client, n_tasks=2, attrs=5)
        yield env.timeout(60)

    env.process(scenario(env))
    env.run()
    tasks = [r for r in sink if r["type"] == "task"]
    begin0 = next(r for r in tasks if r["task_id"] == 0 and r["status"] == "RUNNING")
    assert begin0["datasets"][0]["elements"]["in"] == [1.0] * 5
    end0 = next(r for r in tasks if r["task_id"] == 0 and r["status"] == "FINISHED")
    assert end0["datasets"][0]["derivations"] == ["in0"]
    begin1 = next(r for r in tasks if r["task_id"] == 1 and r["status"] == "RUNNING")
    assert begin1["dependencies"] == [0]


def test_capture_call_is_fast_on_edge():
    env, net, dev, server, client, sink = make_world()
    timing = {}

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()
        task = Task(0, workflow)
        t0 = env.now
        yield from task.begin([Data("in0", 1, {"in": [1.0] * 100})])
        timing["begin_call"] = env.now - t0
        yield env.timeout(0.5)
        t0 = env.now
        yield from task.end([Data("out0", 1, {"out": [2.0] * 100})])
        timing["end_call"] = env.now - t0
        yield from workflow.end()

    env.process(scenario(env))
    env.run()
    # paper Table VII: ~3.9 ms per capture call at 100 attributes
    assert 0.002 < timing["begin_call"] < 0.006
    assert 0.002 < timing["end_call"] < 0.006


def test_capture_latency_independent_of_bandwidth():
    results = {}
    for label, bw in [("fast", 1e9), ("slow", 25e3)]:
        env, net, dev, server, client, sink = make_world(bandwidth=bw)
        run = run_workflow(env, client, n_tasks=5, attrs=100, drain=False)
        env.run(until=600)
        results[label] = run["workflow_elapsed"]
    # async publish: workflow time unaffected by a 40000x slower link
    assert results["slow"] == pytest.approx(results["fast"], rel=0.02)


def test_grouping_reduces_messages_sent():
    env1, _, _, server1, client1, _ = make_world(group_size=0)
    run_workflow(env1, client1, n_tasks=10)
    env1.run(until=300)
    ungrouped = client1.messages_sent.count

    env2, _, _, server2, client2, _ = make_world(group_size=5)
    run_workflow(env2, client2, n_tasks=10)
    env2.run(until=300)
    grouped = client2.messages_sent.count

    # 22 messages ungrouped (2 wf + 20 task) vs 2 wf + 10 begin + 2 groups
    assert ungrouped == 22
    assert grouped == 14


def test_grouped_records_all_arrive():
    env, net, dev, server, client, sink = make_world(group_size=4)

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        run_workflow(env, client, n_tasks=10)
        yield env.timeout(120)

    env.process(scenario(env))
    env.run()
    finished = [r for r in sink if r.get("status") == "FINISHED"]
    assert len(finished) == 10  # nothing lost, partial group flushed at end


def test_compression_shrinks_payload_bytes():
    env1, _, _, _, c1, _ = make_world(compress=True)
    run_workflow(env1, c1, n_tasks=5, attrs=100)
    env1.run(until=300)

    env2, _, _, _, c2, _ = make_world(compress=False)
    run_workflow(env2, c2, n_tasks=5, attrs=100)
    env2.run(until=300)

    assert c1.payload_bytes.total < c2.payload_bytes.total


def test_memory_accounting_static_and_buffers():
    env, net, dev, server, client, sink = make_world()
    assert dev.memory.used("capture-static") > 0

    def scenario(env):
        run_workflow(env, client, n_tasks=3)
        yield env.timeout(120)

    env.process(scenario(env))
    env.run()
    # all buffers freed after the QoS handshakes completed
    assert dev.memory.used("capture-buffers") == 0
    assert dev.memory.peak("capture-buffers") > 0
    client.close()
    assert dev.memory.used("capture-static") == 0


def test_capture_before_setup_rejected():
    env, net, dev, server, client, sink = make_world()

    def scenario(env):
        workflow = Workflow(1, client)
        with pytest.raises(RuntimeError, match="before setup"):
            yield from workflow.begin()

    env.process(scenario(env))
    env.run()


def test_workflow_task_state_machine_guards():
    env, net, dev, server, client, sink = make_world()

    def scenario(env):
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()
        with pytest.raises(RuntimeError, match="already begun"):
            yield from workflow.begin()
        task = Task(0, workflow)
        with pytest.raises(RuntimeError, match="end\\(\\) in state"):
            yield from task.end()
        yield from task.begin()
        with pytest.raises(RuntimeError, match="begin\\(\\) in state"):
            yield from task.begin()
        yield from task.end()
        yield from workflow.end()
        with pytest.raises(RuntimeError, match="already ended"):
            yield from workflow.end()

    env.process(scenario(env))
    env.run()


def test_detached_device_rejected():
    env = Environment()
    dev = Device(env, A8M3)
    with pytest.raises(RuntimeError, match="not attached"):
        ProvLightClient(dev, ("cloud", 1883), "t")


def test_drain_waits_for_queue():
    env, net, dev, server, client, sink = make_world(bandwidth=25e3)
    marks = {}

    def scenario(env):
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()
        task = Task(0, workflow)
        yield from task.begin([Data("in0", 1, {"in": [1.0] * 100})])
        yield from task.end([Data("out0", 1, {"out": [1.5] * 100})])
        marks["before_drain"] = env.now
        yield from workflow.end(drain=True)
        marks["after_drain"] = env.now

    env.process(scenario(env))
    env.run()
    # on a 25 Kbit link the drain takes real time
    assert marks["after_drain"] - marks["before_drain"] > 0.5
    assert client.messages_sent.count == 4
