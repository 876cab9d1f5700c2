"""Shard failover: the cluster survives a broker shard dying.

The failover contract: killing a shard removes it from the hash ring,
invalidates its dispatcher pins, migrates subscriber sessions (with
their filters) onto survivors and drops publisher sessions so the
clients' retry exhaustion trips their reconnect machinery.  A fresh
CONNECT classifies onto the shrunk ring, and in-flight relay traffic to
the dead shard is redirected rather than lost.
"""

import pytest

from repro.mqttsn import BrokerCluster, MqttSnClient
from repro.net import Network
from repro.simkernel import Environment

from .test_cluster import ids_on_distinct_shards, make_cluster_world


def run_failover(env, cluster, index):
    """Kill shard ``index`` and run the sim until its failover completes."""
    cluster.kill_shard(index)
    env.run(until=env.now + 10 * cluster.FAILOVER_DETECT_S)


# -------------------------------------------------------------- mechanics

def test_kill_shard_removes_it_from_ring_and_pins():
    env, net, cluster, clients = make_cluster_world(n_clients=0, shards=4)
    victim = 2
    cluster.kill_shard(victim)
    assert not cluster.shards[victim].alive
    env.run(until=1.0)
    assert len(env.metrics.events("failover")) == 1
    assert victim not in cluster._ring.live_nodes()
    assert cluster.alive_shards == [0, 1, 3]
    # the dead shard keeps its slot: indices of survivors never shift
    assert len(cluster.shards) == 4
    # no session ever homes on the dead shard again
    for cid in (f"probe-{i}" for i in range(64)):
        assert cluster.shard_of(cid) != victim


def test_kill_shard_on_single_shard_cluster_is_rejected():
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    cluster = BrokerCluster(net.hosts["cloud"])
    with pytest.raises(ValueError):
        cluster.kill_shard(0)


def test_check_shards_detects_an_externally_crashed_shard():
    """A shard crashed by something other than the kill hook is still
    picked up: check_shards() arms the same watchdog."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=3)
    cluster.shards[1].crash()
    assert cluster.check_shards() == [1]
    env.run(until=1.0)
    assert len(env.metrics.events("failover")) == 1
    assert 1 not in cluster._ring.live_nodes()
    # idempotent: the handled shard is not reported again
    assert cluster.check_shards() == []


def test_watchdog_terminates_after_failover():
    """The liveness probe must not keep the event heap alive forever —
    env.run() with no deadline returns once failover completes."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=2)
    cluster.kill_shard(0)
    env.run()  # would hang (or spin to the horizon) with a pinned probe
    assert len(env.metrics.events("failover")) == 1


def test_last_shard_death_drops_all_sessions_and_terminates():
    env, net, cluster, (pub, sub) = make_cluster_world(shards=2)

    def scenario(env):
        yield from pub.connect()
        yield from sub.connect()
        yield from sub.subscribe("t/#", lambda t, p: None)
        yield env.timeout(0.1)
        cluster.kill_shard(0)
        cluster.kill_shard(1)

    env.process(scenario(env))
    env.run(until=30)
    assert len(env.metrics.events("failover")) == 2
    assert cluster.alive_shards == []
    assert all(not shard.sessions for shard in cluster.shards)
    # nothing survived to migrate onto
    failovers = env.metrics.events("failover")
    assert sum(e["migrated"] for e in failovers) == 0
    assert sum(e["dropped"] for e in failovers) == 2


# --------------------------------------------------- session re-homing

def test_subscriber_session_migrates_and_keeps_receiving():
    """A subscriber homed on the dying shard keeps its subscription: the
    session object moves to the ring's new owner, filters re-home, and a
    publish after failover still reaches it (topic ids re-REGISTERed)."""
    env = Environment()
    net = Network(env, seed=7)
    net.add_host("cloud")
    cluster = BrokerCluster(net.hosts["cloud"], shards=4,
                            retry_interval_s=0.3, max_retries=5)
    sub_id, pub_id = ids_on_distinct_shards(cluster, count=2)
    victim = cluster.shard_of(sub_id)
    for i, cid in enumerate((sub_id, pub_id)):
        net.add_host(f"edge-{i}")
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    sub = MqttSnClient(net.hosts["edge-0"], sub_id, cluster.endpoint,
                       retry_interval_s=0.3)
    pub = MqttSnClient(net.hosts["edge-1"], pub_id, cluster.endpoint,
                       retry_interval_s=0.3)
    got = []

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("t/+", lambda t, p: got.append((t, p)))
        yield from pub.connect()
        tid = yield from pub.register("t/a")
        yield from pub.publish(tid, b"before", qos=1)
        yield env.timeout(0.5)
        cluster.kill_shard(victim)
        yield env.timeout(0.5)  # watchdog fails the shard over
        yield from pub.publish(tid, b"after", qos=1)

    env.process(scenario(env))
    env.run(until=30)
    [failover] = env.metrics.events("failover")
    assert (failover["shard"], failover["migrated"]) == (victim, 1)
    new_home = cluster.shard_of(sub_id)
    assert new_home != victim
    assert [p for _, p in got] == [b"before", b"after"]


def test_publisher_session_drops_and_reconnect_lands_on_survivor():
    env = Environment()
    net = Network(env, seed=7)
    net.add_host("cloud")
    cluster = BrokerCluster(net.hosts["cloud"], shards=4,
                            retry_interval_s=0.2, max_retries=3)
    (pub_id,) = ids_on_distinct_shards(cluster, count=1)
    victim = cluster.shard_of(pub_id)
    net.add_host("edge-0")
    net.connect("edge-0", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    pub = MqttSnClient(net.hosts["edge-0"], pub_id, cluster.endpoint,
                       retry_interval_s=0.2)

    def scenario(env):
        yield from pub.connect()
        yield env.timeout(0.1)
        cluster.kill_shard(victim)
        yield env.timeout(0.5)
        # the dropped publisher reconnects: CONNECT classifies on the
        # shrunk ring, so the fresh session lives on a survivor
        yield from pub.connect()

    env.process(scenario(env))
    env.run(until=30)
    [failover] = env.metrics.events("failover")
    assert (failover["shard"], failover["dropped"]) == (victim, 1)
    new_home = cluster.shard_of(pub_id)
    assert new_home != victim
    assert cluster.shards[new_home].sessions, "reconnect created no session"
    assert not cluster.shards[victim].sessions
