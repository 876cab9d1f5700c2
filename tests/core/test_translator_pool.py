"""Tests for the sharded translator pool on the ProvLight server."""

import pytest

from repro.capture import create_client
from repro.core import (
    CallableBackend,
    Data,
    ProvLightServer,
    ServerConfig,
    Task,
    TranslatorPool,
    Workflow,
)
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.net import Network
from repro.simkernel import Environment


def make_world(workers=4, n_edge=2, **server_kwargs):
    env = Environment()
    net = Network(env, seed=4)
    cloud_dev = Device(env, XEON_GOLD_5220, name="cloud-dev")
    net.add_host("cloud", device=cloud_dev)
    sink = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(sink.extend),
        config=ServerConfig(workers=workers, **server_kwargs),
    )
    devices = []
    for i in range(n_edge):
        dev = Device(env, A8M3, name=f"edge-{i}")
        net.add_host(f"edge-{i}", device=dev)
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        devices.append(dev)
    return env, net, server, devices, sink


def test_pool_is_fixed_size_regardless_of_topic_count():
    env, net, server, devices, sink = make_world(workers=4)

    def scenario(env):
        for i in range(32):
            yield from server.pool.attach(f"provlight/dev-{i}/data")

    env.process(scenario(env))
    env.run()
    assert len(server.pool) == 4
    attached = sum(len(w.topic_filters) for w in server.pool.workers)
    assert attached == 32
    # 32 topics need at most 4 subscriber sessions on the broker, not 32
    assert len(server.broker.sessions) <= 4


def test_shard_assignment_is_stable_and_spread():
    env, net, server, devices, sink = make_world(workers=4)
    topics = [f"provlight/dev-{i}/data" for i in range(64)]
    first = [server.pool.worker_for(t).index for t in topics]
    second = [server.pool.worker_for(t).index for t in topics]
    assert first == second  # pure function of the topic
    assert len(set(first)) == 4  # every worker serves a share


def test_wildcard_filters_shard_without_registration():
    env, net, server, devices, sink = make_world(workers=4)
    worker = server.pool.worker_for("provlight/#")
    assert worker is server.pool.worker_for("provlight/#")
    assert "provlight/#" not in server.broker.topics


def test_pool_requires_at_least_one_worker():
    env, net, server, devices, sink = make_world(workers=1)
    with pytest.raises(ValueError):
        TranslatorPool(server, 0)


def _run_workflow(env, client, wf_id, n_tasks=3):
    def proc(env):
        yield from client.setup()
        workflow = Workflow(wf_id, client)
        yield from workflow.begin()
        for i in range(n_tasks):
            task = Task(i, workflow)
            yield from task.begin([Data(f"in{i}", wf_id, {"x": [1.0] * 5})])
            yield env.timeout(0.05)
            yield from task.end([Data(f"out{i}", wf_id, {"y": [2.0] * 5})])
        yield from workflow.end(drain=True)

    env.process(proc(env))


def test_records_flow_through_sharded_pool():
    env, net, server, devices, sink = make_world(workers=2, n_edge=2)

    def scenario(env):
        for i, dev in enumerate(devices):
            yield from server.pool.attach(f"provlight/edge-{i}/data")
        for i, dev in enumerate(devices):
            client = create_client(
                dev, server.endpoint, f"provlight/edge-{i}/data"
            )
            _run_workflow(env, client, wf_id=i)
        yield env.timeout(60)

    env.process(scenario(env))
    env.run()
    # 2 workflows x (wf begin/end + 3 x task begin/end) = 16 records
    assert server.front.ingested.total == 16
    types = [r["type"] for r in sink]
    assert types.count("dataflow") == 4
    assert types.count("task") == 12
    assert server.pool.queued == 0  # inboxes fully drained


def test_backend_swap_after_construction_is_honoured():
    # harness code replaces server.backend after construction; workers
    # must read it at ingest time, not bind it at startup
    env, net, server, devices, sink = make_world(workers=2, n_edge=1)
    replacement = []
    server.backend = CallableBackend(replacement.extend)

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        client = create_client(devices[0], server.endpoint, "provlight/edge-0/data")
        _run_workflow(env, client, wf_id="swap", n_tasks=1)
        yield env.timeout(30)

    env.process(scenario(env))
    env.run()
    assert not sink
    assert len(replacement) == 4


def test_connect_failure_propagates_and_does_not_wedge_the_worker():
    # a failed worker connect must reach every raced attach as an error
    # (not a silent hang) and leave the worker retryable
    from repro.mqttsn import MqttSnTimeout

    env, net, server, devices, sink = make_world(workers=1, n_edge=1)
    worker = server.pool.workers[0]
    real_connect = worker.client.connect

    def failing_connect():
        yield env.timeout(0.1)
        raise MqttSnTimeout("broker unreachable")

    worker.client.connect = failing_connect
    errors = []

    def attach(env, topic):
        try:
            yield from server.pool.attach(topic)
        except MqttSnTimeout:
            errors.append(topic)

    def recover(env):
        yield env.timeout(1.0)
        worker.client.connect = real_connect
        yield from server.pool.attach("provlight/c")

    env.process(attach(env, "provlight/a"))
    env.process(attach(env, "provlight/b"))  # waits on the same gate
    env.process(recover(env))
    env.run()
    assert sorted(errors) == ["provlight/a", "provlight/b"]
    assert worker.topic_filters == ["provlight/c"]  # later attach recovered


def test_grow_migrates_only_ring_remapped_topics():
    """Growing by one worker re-homes exactly the filters the (K+1)-node
    ring assigns to the new worker (the ring-subset property applied to
    live subscriptions); everything else keeps its owner."""
    from repro.hashring import ConsistentHashRing

    env, net, server, devices, sink = make_world(
        workers=2, pool_min=2, pool_max=3
    )
    topics = [f"provlight/dev-{i}/data" for i in range(32)]

    def scenario(env):
        for topic in topics:
            yield from server.pool.attach(topic)
        before = {
            topic: server.pool.worker_for(topic).index - 1 for topic in topics
        }
        yield from server.pool._grow()
        grown = ConsistentHashRing(3, salt="worker")
        for topic in topics:
            owner = next(
                w.index - 1 for w in server.pool.workers
                if topic in w.topic_filters
            )
            assert owner == grown.node_for(topic)
            if grown.node_for(topic) != 2:  # not remapped: stayed put
                assert owner == before[topic]

    env.process(scenario(env))
    env.run()
    assert len(server.pool) == 3
    moved = sum(
        1 for t in topics
        if ConsistentHashRing(3, salt="worker").node_for(t) == 2
    )
    assert len(env.metrics.events("migrate-filter")) == moved
    assert all(e["new_worker"] == 3 for e in env.metrics.events("migrate-filter"))
    assert [e["workers"] for e in env.metrics.events("grow-pool")] == [3]


def test_pool_autoscales_up_under_load_and_back_to_min_when_idle():
    """Sustained inbox depth grows the pool; draining it shrinks back to
    ``pool_min`` — with exactly-once, per-client-ordered ingestion across
    every topic handover."""
    import dataclasses

    from repro.calibration import SERVER_COSTS

    env = Environment()
    net = Network(env, seed=4)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    sink = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(sink.extend),
        config=ServerConfig(workers=1, pool_min=1, pool_max=4),
        # inflate the per-message translate cost (reference seconds; the
        # Xeon's io_speedup divides it) so one worker saturates and
        # sustained queue depth builds
        costs=dataclasses.replace(SERVER_COSTS, translate_per_message_s=0.45),
    )
    dev = Device(env, A8M3, name="edge-0")
    net.add_host("edge-0", device=dev)
    # low latency: the clients' QoS-2 round trips must outpace service
    net.connect("edge-0", "cloud", bandwidth_bps=1e9, latency_s=0.0005)

    sizes = []
    done = []

    def sampler(env):
        while len(done) < 3 or server.pool.queued:
            sizes.append(len(server.pool))
            yield env.timeout(0.1)
        for _ in range(40):  # watch the shrink back to min
            sizes.append(len(server.pool))
            yield env.timeout(0.1)

    def workload(env, topic, n_tasks):
        yield from server.pool.attach(topic)
        client = create_client(dev, server.endpoint, topic)
        yield from client.setup()
        wf = Workflow(topic, client)
        yield from wf.begin()
        for i in range(n_tasks):
            task = Task(i, wf)
            yield from task.begin([])
            yield env.timeout(0.001)
            yield from task.end([])
        yield from wf.end(drain=True)
        done.append(topic)

    for t in range(3):
        env.process(workload(env, f"provlight/edge-{t}/data", 40))
    env.process(sampler(env))
    env.run()
    assert len(env.metrics.events("grow-pool")) >= 1
    assert len(env.metrics.events("migrate-filter")) >= 1  # handover under load
    assert max(sizes) > 1  # it actually ran wider than min
    assert len(server.pool) == 1  # ...and came back down when idle
    assert env.metrics.events("shrink-pool")[-1]["workers"] == 1
    assert server.pool.queued == 0
    # exactly once: 3 x (2 workflow events + 40 x (begin + end))
    assert server.front.ingested.total == 246
    # per-client order survived every handover: each task's RUNNING
    # record was ingested before its FINISHED record
    seen = {}
    for record in sink:
        if record["type"] != "task":
            continue
        key = (record["dataflow_tag"], record["task_id"])
        if record["status"] == "RUNNING":
            assert key not in seen
            seen[key] = "RUNNING"
        else:
            assert seen.get(key) == "RUNNING"
            seen[key] = "FINISHED"
    assert all(v == "FINISHED" for v in seen.values())


def test_static_pool_never_starts_the_autoscale_monitor():
    env, net, server, devices, sink = make_world(workers=2, n_edge=1)

    def scenario(env):
        yield from server.pool.attach("provlight/edge-0/data")
        client = create_client(
            devices[0], server.endpoint, "provlight/edge-0/data"
        )
        _run_workflow(env, client, wf_id="static", n_tasks=2)
        yield env.timeout(30)

    env.process(scenario(env))
    env.run()
    assert server.pool._monitor is None
    assert env.metrics.events() == []


def test_an_idle_elastic_pool_keeps_its_size_and_records_no_event():
    env, net, server, devices, sink = make_world(
        workers=2, pool_min=1, pool_max=4
    )

    def scenario(env):
        yield from server.pool.attach("provlight/edge-0/data")

    env.process(scenario(env))
    env.run()
    pool = server.pool
    assert len(pool) == 2
    assert (pool.min_workers, pool.max_workers) == (1, 4)
    assert pool.queued == 0
    assert sum(len(w.topic_filters) for w in pool.workers) == 1
    assert env.metrics.events() == []


def test_callable_backend_reports_inline():
    delivered = []
    outcomes = []
    backend = CallableBackend(delivered.append)
    backend.ingest_batch([{"r": 1}], outcomes.append)
    # synchronous backend: delivery and its report happen inline
    assert delivered == [{"r": 1}]
    assert outcomes == [None]
