"""Chaos acceptance: a shard dies mid fan-in and nothing is lost.

The ISSUE's acceptance bar for the fault-tolerant server plane: four
broker shards, durable capture clients fanning in, one shard killed in
the middle of the stream.  The cluster fails the shard over, the
dropped publishers ride their QoS-retry exhaustion into the reconnect
machine, a fresh CONNECT lands on a survivor, the journal replays — and
the backend ingests every record exactly once.
"""

import pytest

from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, Data, ProvLightServer, ServerConfig, Task, Workflow
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.net import Network, ServerFaultInjector
from repro.simkernel import Environment


N_DEVICES = 4
N_TASKS = 8
RECORDS_PER_DEVICE = 2 + 2 * N_TASKS  # wf begin/end + task begins/ends


def make_chaos_world(tmp_path, shards=4, seed=11):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=4, broker_shards=shards),
    )
    cluster = server.broker
    # choose client ids so at least one homes on the shard we will kill
    # (and, with this seed, the others spread over survivors)
    victim = None
    client_ids = []
    i = 0
    while len(client_ids) < N_DEVICES:
        candidate = f"edge-{i}"
        home = cluster.shard_of(candidate)
        if victim is None:
            victim = home
            client_ids.append(candidate)
        elif home == victim and sum(
            1 for c in client_ids if cluster.shard_of(c) == victim
        ) < 2:
            client_ids.append(candidate)  # a second victim-homed client
        elif home != victim:
            client_ids.append(candidate)
        i += 1
    clients = []
    for j, cid in enumerate(client_ids):
        dev = Device(env, A8M3, name=cid)
        net.add_host(f"host-{cid}", device=dev)
        net.connect(f"host-{cid}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=str(tmp_path),
            client_id=cid, qos=1,
            reconnect_base_s=0.2, reconnect_factor=1.5, reconnect_max_s=1.0,
        )
        client = create_client(dev, server.endpoint, f"conf/{cid}/data", config)
        client.transport.mqtt.retry_interval_s = 0.2
        client.transport.mqtt.max_retries = 3
        clients.append(client)
    return env, net, server, received, clients, client_ids, victim


def drive(env, server, client, topic, done):
    def proc(env):
        yield from server.pool.attach(topic)
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(N_TASKS):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"x": [1.0] * 4})])
            yield env.timeout(0.2)
            yield from task.end([Data(f"out{i}", 1, {"y": [2.0] * 4})])
        yield from wf.end(drain=True)
        done.append(env.now)

    return env.process(proc(env))


def test_shard_kill_mid_fanin_loses_zero_records_exactly_once(tmp_path):
    env, net, server, received, clients, client_ids, victim = (
        make_chaos_world(tmp_path)
    )
    cluster = server.broker
    assert any(cluster.shard_of(cid) == victim for cid in client_ids)
    injector = ServerFaultInjector(server)
    # mid fan-in: each device streams for ~1.6 simulated seconds
    injector.kill_shard_at(0.8, victim)
    done = []
    for cid, client in zip(client_ids, clients):
        drive(env, server, client, f"conf/{cid}/data", done)
    env.run(until=600)

    assert len(done) == N_DEVICES, "some client never finished its drain"
    [failover] = env.metrics.events("failover")
    assert victim not in cluster._ring.live_nodes()
    # the victim-homed publishers were dropped and reconnected; their
    # replays are why the totals below still balance
    assert failover["dropped"] >= 1
    assert env.metrics.events("reconnect"), "no client exercised the reconnect path"

    expected = N_DEVICES * RECORDS_PER_DEVICE
    captured = sum(c.records_captured.count for c in clients)
    assert captured == expected
    # zero loss AND exactly-once: the backend saw each record precisely once
    assert server.front.ingested.total == expected
    assert len(received) == expected
    # replays happened, and the dedup index swallowed every duplicate
    assert sum(c.replayed.count for c in clients) >= 1


def test_shard_kill_with_p2c_and_elastic_pool_is_still_exactly_once(tmp_path):
    """The chaos bar holds with the perf features switched on: p2c
    session placement and an elastic translator pool.  A shard dies mid
    fan-in — chosen *after* connect, since p2c placement is load-driven
    rather than id-driven — and the backend still ingests every record
    exactly once."""
    env = Environment()
    net = Network(env, seed=11)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=2, broker_shards=4, broker_placement="p2c",
                            pool_min=2, pool_max=4),
    )
    cluster = server.broker
    client_ids = [f"edge-{i}" for i in range(N_DEVICES)]
    clients = []
    for cid in client_ids:
        dev = Device(env, A8M3, name=cid)
        net.add_host(f"host-{cid}", device=dev)
        net.connect(f"host-{cid}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=str(tmp_path),
            client_id=cid, qos=1,
            reconnect_base_s=0.2, reconnect_factor=1.5, reconnect_max_s=1.0,
        )
        client = create_client(dev, server.endpoint, f"conf/{cid}/data", config)
        client.transport.mqtt.retry_interval_s = 0.2
        client.transport.mqtt.max_retries = 3
        clients.append(client)

    def chaos(env):
        # with load-driven placement the victim cannot be precomputed
        # from client ids; kill whichever live shard carries the most
        # sessions once the fan-in is underway
        yield env.timeout(0.8)
        by_load = max(
            range(4),
            key=lambda i: (
                len(cluster.shards[i].sessions)
                if cluster.shards[i].alive else -1
            ),
        )
        cluster.kill_shard(by_load)

    env.process(chaos(env))
    done = []
    for cid, client in zip(client_ids, clients):
        drive(env, server, client, f"conf/{cid}/data", done)
    env.run(until=600)

    assert len(done) == N_DEVICES, "some client never finished its drain"
    assert len(env.metrics.events("failover")) == 1
    assert cluster.p2c_placements.count >= N_DEVICES
    expected = N_DEVICES * RECORDS_PER_DEVICE
    captured = sum(c.records_captured.count for c in clients)
    assert captured == expected
    assert server.front.ingested.total == expected
    assert len(received) == expected
    # the elastic pool is intact and drained; under this light load it
    # must have settled back at (or never left) its minimum
    assert len(server.pool) == 2
    assert server.pool.queued == 0


def test_degraded_cluster_keeps_ingesting_after_failover(tmp_path):
    """After failover the 3-shard plane keeps serving: a second workload
    wave (same clients, fresh records) completes with exactly-once
    ingestion and no further failovers."""
    env, net, server, received, clients, client_ids, victim = (
        make_chaos_world(tmp_path, seed=13)
    )
    cluster = server.broker
    injector = ServerFaultInjector(server)
    injector.kill_shard_at(0.8, victim)
    done = []
    for cid, client in zip(client_ids, clients):
        drive(env, server, client, f"conf/{cid}/data", done)
    env.run(until=600)
    assert len(done) == N_DEVICES
    first_total = server.front.ingested.total
    assert first_total == N_DEVICES * RECORDS_PER_DEVICE

    # second wave on the degraded plane
    done2 = []
    for cid, client in zip(client_ids, clients):
        def wave(env, client=client):
            wf = Workflow(2, client)
            yield from wf.begin()
            for i in range(4):
                task = Task(100 + i, wf)
                yield from task.begin([Data(f"b{i}", 2, {"x": [1.0] * 4})])
                yield env.timeout(0.1)
                yield from task.end([Data(f"c{i}", 2, {"y": [2.0] * 4})])
            yield from wf.end(drain=True)
            done2.append(env.now)

        env.process(wave(env))
    env.run(until=1200)
    assert len(done2) == N_DEVICES
    assert len(env.metrics.events("failover")) == 1  # no new failovers
    assert server.front.ingested.total == first_total + N_DEVICES * 10
