"""Fault-tolerance cost of the broker plane: failover MTTR + degraded rate.

Two numbers the fault-tolerant server plane (shard watchdog + failover)
is judged by, both measured in *simulated* time so they are
machine-independent:

* ``failover_recovery_ms`` — mean time to recover: a shard is killed
  under a durable fan-in and the clock runs from the kill instant until
  every dropped publisher is reconnected onto a survivor with its
  journal backlog replayed (connection-state transitions timestamp
  this; no polling).  Detection (``BrokerCluster.FAILOVER_DETECT_S``),
  QoS-retry exhaustion, reconnect backoff and replay are all inside the
  window — it is the end-to-end publish outage a device experiences.
* ``degraded_throughput_3_of_4_shards`` — the fan-in throughput a
  4-shard cluster sustains *after* losing one shard, as a fraction of
  the healthy 4-shard rate on the identical workload.  The ring shrinks
  to 3 partitions but the dispatcher still pays its serial front cost,
  so the ratio lands between 3/4 and 1 depending on how skewed the
  re-homed sessions are.

As in ``test_broker_shard_scale.py`` the pytest-benchmark medians gate
the wall-clock cost of simulating these scenarios, while the simulated
measures ride along in ``benchmark.extra_info`` and feed the headline
rows ``scripts/run_benchmarks.py`` writes.
"""

import shutil
import tempfile
from dataclasses import dataclass

import pytest

from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, Data, ProvLightServer, ServerConfig, Task, Workflow
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.mqttsn import BrokerCluster, MqttSnClient
from repro.net import Network, ServerFaultInjector
from repro.simkernel import Environment

# ------------------------------------------------ failover recovery time

N_DEVICES = 4
N_TASKS = 6
KILL_AT_S = 0.8


@dataclass
class FailoverResult:
    recovery_ms: float
    captured: int
    ingested: int
    reconnected: int


def run_failover_recovery(shards: int = 4) -> FailoverResult:
    """Kill one of ``shards`` under a durable fan-in; time the outage.

    Client ids are chosen so at least one publisher homes on the victim
    shard (deterministic given the hash ring).  Every client timestamps
    its connection-state transitions; the recovery window closes when
    the last client that entered ``reconnecting`` after the kill is back
    to ``connected`` — which the client only reports after its journal
    replay drained, so the measure includes catch-up, not just the
    handshake.
    """
    env = Environment()
    net = Network(env, seed=11)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=4, broker_shards=shards),
    )
    cluster = server.broker
    victim = None
    client_ids = []
    i = 0
    while len(client_ids) < N_DEVICES:
        candidate = f"edge-{i}"
        home = cluster.shard_of(candidate)
        if victim is None:
            victim = home
            client_ids.append(candidate)
        elif home != victim or sum(
            1 for c in client_ids if cluster.shard_of(c) == victim
        ) < 2:
            client_ids.append(candidate)
        i += 1

    journal_dir = tempfile.mkdtemp(prefix="provlight-failover-bench-")
    transitions = {cid: [] for cid in client_ids}
    clients = []
    for cid in client_ids:
        dev = Device(env, A8M3, name=cid)
        net.add_host(f"host-{cid}", device=dev)
        net.connect(f"host-{cid}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=journal_dir,
            client_id=cid, qos=1,
            reconnect_base_s=0.2, reconnect_factor=1.5, reconnect_max_s=1.0,
        )
        client = create_client(dev, server.endpoint, f"bench/{cid}/data", config)
        client.transport.mqtt.retry_interval_s = 0.2
        client.transport.mqtt.max_retries = 3
        client.add_connection_listener(
            lambda state, cid=cid: transitions[cid].append((env.now, state))
        )
        clients.append(client)

    injector = ServerFaultInjector(server)
    injector.kill_shard_at(KILL_AT_S, victim)

    done = []

    def drive(env, client, topic):
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

    for cid, client in zip(client_ids, clients):
        env.process(drive(env, client, f"bench/{cid}/data"))
    env.run(until=600)

    try:
        assert len(done) == N_DEVICES, "a client never finished its drain"
        assert len(env.metrics.events("failover")) == 1

        # close the window at the last post-kill return to "connected"
        recovered_at = None
        reconnected = 0
        for cid, log in transitions.items():
            dropped_at = next(
                (t for t, s in log if t >= KILL_AT_S and s == "reconnecting"),
                None,
            )
            if dropped_at is None:
                continue
            reconnected += 1
            back = max(t for t, s in log if s == "connected" and t > dropped_at)
            recovered_at = back if recovered_at is None else max(recovered_at, back)
        assert recovered_at is not None, "no client exercised the outage"
        captured = sum(c.records_captured.count for c in clients)
        return FailoverResult(
            recovery_ms=(recovered_at - KILL_AT_S) * 1e3,
            captured=captured,
            ingested=int(server.front.ingested.total),
            reconnected=reconnected,
        )
    finally:
        for client in clients:
            client.close()
        shutil.rmtree(journal_dir, ignore_errors=True)


def test_failover_recovery(benchmark):
    result = benchmark(run_failover_recovery)
    expected = N_DEVICES * (2 + 2 * N_TASKS)
    assert result.captured == expected
    assert result.ingested == expected  # zero loss, exactly once
    assert result.reconnected >= 1
    benchmark.extra_info["failover_recovery_ms"] = round(result.recovery_ms, 1)
    benchmark.extra_info["reconnected_clients"] = result.reconnected


# ------------------------------------------- degraded fan-in throughput

N_PUBLISHERS = 48
MSGS_PER_PUBLISHER = 25
BLAST_AT_S = 1.0
#: kill instant for the degraded run: before any CONNECT, so publishers
#: classify onto the already-shrunk ring (plain MQTT-SN clients have no
#: reconnect machine; mid-connection kills belong to the recovery
#: benchmark above)
DEGRADE_AT_S = 0.01
CONNECT_AT_S = 0.3


@dataclass
class DegradedRunResult:
    live_shards: int
    delivered: int
    makespan_s: float

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.delivered / self.makespan_s


def run_degraded_publish_workload(shards: int = 4,
                                  kill_one: bool = False) -> DegradedRunResult:
    """The shard-scale fan-in, optionally on a plane that lost a shard.

    With ``kill_one`` the first shard is killed (and failed over) before
    any client connects: the measured blast then runs on the surviving
    ``shards - 1`` partitions behind the same dispatcher — the steady
    degraded state after a failover, isolated from the outage transient.
    """
    env = Environment()
    net = Network(env, seed=3)
    net.add_host("cloud")
    cluster = BrokerCluster(net.hosts["cloud"], shards=shards)

    if kill_one:
        def chaos(env):
            yield env.timeout(DEGRADE_AT_S)
            cluster.kill_shard(0)

        env.process(chaos(env))

    expected = N_PUBLISHERS * MSGS_PER_PUBLISHER
    done = {"at": None, "count": 0}

    def on_message(topic, payload):
        done["count"] += 1
        if done["count"] == expected:
            done["at"] = env.now

    net.add_host("monitor")
    net.connect("monitor", "cloud", bandwidth_bps=1e9, latency_s=0.0005)
    monitor = MqttSnClient(net.hosts["monitor"], "monitor", cluster.endpoint)

    def run_monitor(env):
        yield env.timeout(CONNECT_AT_S)  # well after the failover settled
        yield from monitor.connect()
        yield from monitor.subscribe("bench/#", on_message, qos=0)

    def run_publisher(env, client, index):
        yield env.timeout(CONNECT_AT_S)
        yield from client.connect()
        topic_id = yield from client.register(f"bench/dev-{index}/data")
        yield env.timeout(BLAST_AT_S - env.now)
        for m in range(MSGS_PER_PUBLISHER):
            client.publish_nowait(topic_id, b"m%05d" % m, qos=0)

    env.process(run_monitor(env))
    for i in range(N_PUBLISHERS):
        name = f"edge-{i}"
        net.add_host(name)
        net.connect(name, "cloud", bandwidth_bps=1e9, latency_s=0.0005)
        client = MqttSnClient(net.hosts[name], f"pub-{i}", cluster.endpoint)
        env.process(run_publisher(env, client, i))
    env.run()

    assert done["at"] is not None, (
        f"only {done['count']}/{expected} messages delivered"
    )
    if kill_one:
        assert len(env.metrics.events("failover")) == 1
    return DegradedRunResult(
        live_shards=len(cluster.alive_shards),
        delivered=done["count"],
        makespan_s=done["at"] - BLAST_AT_S,
    )


def test_degraded_cluster_publish_throughput(benchmark):
    result = benchmark(run_degraded_publish_workload, 4, True)
    assert result.delivered == N_PUBLISHERS * MSGS_PER_PUBLISHER
    assert result.live_shards == 3
    benchmark.extra_info["live_shards"] = result.live_shards
    benchmark.extra_info["simulated_msgs_per_s"] = round(
        result.throughput_msgs_per_s, 1
    )
    benchmark.extra_info["simulated_makespan_ms"] = round(
        result.makespan_s * 1e3, 3
    )


def test_degraded_throughput_stays_useful():
    """Acceptance bar, deterministic in simulated time: losing 1 of 4
    shards keeps at least half the healthy fan-in throughput (expected
    ~3/4: three live partitions behind the same serial dispatcher)."""
    healthy = run_degraded_publish_workload(4, kill_one=False)
    degraded = run_degraded_publish_workload(4, kill_one=True)
    assert healthy.delivered == degraded.delivered
    ratio = degraded.throughput_msgs_per_s / healthy.throughput_msgs_per_s
    assert ratio > 0.5, f"degraded throughput collapsed to {ratio:.2f}x"
