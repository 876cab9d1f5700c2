"""BrokerCluster: sharded broker plane behind one endpoint.

Covers the cluster acceptance contract: a cluster of one is the
standalone broker (wire-identical, same attributes), larger clusters pin
sessions to shards by client-id hash, and a PUBLISH arriving on one
shard reaches subscribers homed on any other shard — exact and wildcard
filters alike — with the single broker's QoS and accounting semantics.
"""

import pytest

from repro.mqttsn import (
    DEFAULT_BROKER_PORT,
    BrokerCluster,
    MqttSnClient,
)
from repro.mqttsn.cluster import _peek_connect_client_id
from repro.mqttsn import packets as pkt
from repro.net import Network, UdpSocket
from repro.simkernel import Environment


def make_cluster_world(n_clients=2, shards=4, loss=0.0, seed=7,
                       retry_interval_s=0.3, max_retries=5, client_ids=None,
                       **cluster_kwargs):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    cluster = BrokerCluster(
        net.hosts["cloud"], shards=shards,
        retry_interval_s=retry_interval_s, max_retries=max_retries,
        **cluster_kwargs,
    )
    if client_ids is None:
        client_ids = [f"c{i}" for i in range(n_clients)]
    clients = []
    for i, client_id in enumerate(client_ids):
        net.add_host(f"edge-{i}")
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01,
                    loss=loss)
        clients.append(
            MqttSnClient(net.hosts[f"edge-{i}"], client_id,
                         cluster.endpoint, retry_interval_s=0.3)
        )
    return env, net, cluster, clients


def ids_on_distinct_shards(cluster, count=2, prefix="c"):
    """Deterministically pick client ids homed on pairwise-distinct shards."""
    chosen, shards_used = [], set()
    i = 0
    while len(chosen) < count:
        candidate = f"{prefix}{i}"
        shard = cluster.shard_of(candidate)
        if shard not in shards_used:
            shards_used.add(shard)
            chosen.append(candidate)
        i += 1
    return chosen


def ids_on_same_shard(cluster, count=2, prefix="s"):
    by_shard = {}
    i = 0
    while True:
        candidate = f"{prefix}{i}"
        bucket = by_shard.setdefault(cluster.shard_of(candidate), [])
        bucket.append(candidate)
        if len(bucket) == count:
            return bucket
        i += 1


# ---------------------------------------------------------------- shards=1


def test_cluster_of_one_is_the_standalone_broker():
    """No dispatcher, no routing view, no relay: the single shard binds
    the public port itself — byte-for-byte the pre-cluster server."""
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    cluster = BrokerCluster(net.hosts["cloud"])
    assert len(cluster) == 1
    assert cluster.dispatcher is None
    assert cluster.routing_view is None
    shard = cluster.shards[0]
    assert shard.relay is None
    assert isinstance(shard.sock, UdpSocket)
    assert shard.sock.port == DEFAULT_BROKER_PORT
    assert cluster.shard_of("anything") == 0
    # delegated views are the shard's own objects, not copies
    assert cluster.sessions is shard.sessions
    assert cluster.subscriptions is shard.subscriptions
    assert cluster.topics is shard.topics
    # the one shard's counters are the run's broker counters
    shard.delivery_failures.record()
    assert cluster.env.metrics.summed("broker", "delivery_failures", shard=0).count == 1


def test_cluster_of_one_full_qos2_roundtrip():
    env, net, cluster, (pub, sub) = make_cluster_world(shards=1)
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: got.append(p))

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"x", qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [b"x"]
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0


def test_retry_knob_setter_reaches_every_shard():
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=3)
    cluster.retry_interval_s = 0.05
    cluster.max_retries = 2
    assert all(s.retry_interval_s == 0.05 for s in cluster.shards)
    assert all(s.max_retries == 2 for s in cluster.shards)


def test_cluster_rejects_zero_shards():
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    with pytest.raises(ValueError):
        BrokerCluster(net.hosts["cloud"], shards=0)


# ----------------------------------------------------------- connect peek


def test_connect_peek_extracts_client_id():
    frame = pkt.Connect(client_id="edge-device-7").encode()
    assert _peek_connect_client_id(frame) == "edge-device-7"
    assert _peek_connect_client_id(pkt.Pingreq().encode()) is None
    assert _peek_connect_client_id(b"") is None
    assert _peek_connect_client_id(b"\x01\x00") is None
    tid_frame = pkt.Publish(topic_id=3, msg_id=9, payload=b"zz").encode()
    assert _peek_connect_client_id(tid_frame) is None


def test_sessions_pin_to_the_client_id_shard():
    env, net, cluster, clients = make_cluster_world(
        n_clients=3, shards=4, client_ids=None,
    )

    def scenario(env):
        for client in clients:
            yield from client.connect()

    env.process(scenario(env))
    env.run()
    assert len(cluster.sessions) == 3
    for client in clients:
        expected = cluster.shard_of(client.client_id)
        endpoint = (client.host.name, client.sock.port)
        assert cluster.dispatcher.pins[endpoint] == expected
        assert endpoint in cluster.shards[expected].sessions


# ------------------------------------------------------ cross-shard routing


def test_cross_shard_qos1_publish_reaches_exact_subscriber():
    """Acceptance: a subscriber homed on shard B receives a QoS-1 PUBLISH
    sent to shard A (exact filter)."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    pub_id, sub_id = ids_on_distinct_shards(cluster, 2)
    env, net, cluster, (pub, sub) = make_cluster_world(
        shards=4, client_ids=[pub_id, sub_id],
    )
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/dev/1", lambda t, p: got.append((t, p)),
                                 qos=1)

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("prov/dev/1")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"cross", qos=1)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [("prov/dev/1", b"cross")]
    assert cluster.relayed.count == 1
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0
    assert all(not s._outbound for s in cluster.shards)
    # the delivery was made by the subscriber's home shard, not the origin
    sub_home = cluster.shards[cluster.shard_of(sub_id)]
    pub_home = cluster.shards[cluster.shard_of(pub_id)]
    assert sub_home.forwarded.count == 1
    assert pub_home.forwarded.count == 0


def test_cross_shard_wildcard_subscriber_receives_qos2():
    """Acceptance: wildcard filters replicate into the shared routing
    view, so `prov/#` homed on shard B matches a PUBLISH on shard A."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    pub_id, sub_id = ids_on_distinct_shards(cluster, 2)
    env, net, cluster, (pub, sub) = make_cluster_world(
        shards=4, client_ids=[pub_id, sub_id],
    )
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/#", lambda t, p: got.append((t, p)))

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("prov/dev/fresh")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"w", qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    # topic resolution crossed shards: the subscriber's home shard had
    # never seen the topic and must broker-REGISTER it before delivering
    assert got == [("prov/dev/fresh", b"w")]
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0
    assert all(not s._outbound for s in cluster.shards)


def test_same_shard_delivery_does_not_relay():
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    a, b = ids_on_same_shard(cluster, 2)
    env, net, cluster, (pub, sub) = make_cluster_world(
        shards=4, client_ids=[a, b],
    )
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("local/t", lambda t, p: got.append(p))

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("local/t")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"stay", qos=1)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [b"stay"]
    assert cluster.relayed.count == 0


def test_subscriber_on_every_shard_receives_one_publish():
    """One PUBLISH fans out to subscribers on all four shards exactly once."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    sub_ids = ids_on_distinct_shards(cluster, 4, prefix="sub")
    pub_id = "thepub"
    env, net, cluster, clients = make_cluster_world(
        shards=4, client_ids=[pub_id, *sub_ids],
    )
    pub, subs = clients[0], clients[1:]
    got = {cid: [] for cid in sub_ids}

    def subscriber(env, client):
        yield from client.connect()
        yield from client.subscribe(
            "fan/+/out", lambda t, p, cid=client.client_id: got[cid].append(p)
        )

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("fan/1/out")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"all", qos=1)

    for client in subs:
        env.process(subscriber(env, client))
    env.process(publisher(env))
    env.run()
    assert all(messages == [b"all"] for messages in got.values())
    # three of the four subscribers are homed off the publisher's shard
    assert cluster.relayed.count == 3


def test_disconnect_drops_out_of_the_shared_routing_view():
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    pub_id, sub_id = ids_on_distinct_shards(cluster, 2)
    env, net, cluster, (pub, sub) = make_cluster_world(
        shards=4, client_ids=[pub_id, sub_id],
    )
    got = []

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("gone/t", lambda t, p: got.append(p))
        yield from pub.connect()
        tid = yield from pub.register("gone/t")
        yield env.timeout(0.5)
        assert len(cluster.subscriptions) == 1
        sub.disconnect()
        yield env.timeout(0.5)
        assert len(cluster.subscriptions) == 0
        yield from pub.publish(tid, b"nobody", qos=1)

    env.process(scenario(env))
    env.run()
    assert got == []
    assert cluster.relayed.count == 0


def test_reconnect_with_new_client_id_purges_the_old_shard():
    """An endpoint re-identifying onto a different shard must not leave a
    ghost session (or routing-view entries) on its old home."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    first = "a0"
    second = next(
        f"b{i}" for i in range(100)
        if cluster.shard_of(f"b{i}") != cluster.shard_of(first)
    )
    env, net, cluster, (client,) = make_cluster_world(
        shards=4, client_ids=[first],
    )

    def scenario(env):
        yield from client.connect()
        yield from client.subscribe("ghost/t", lambda t, p: None)
        old_home = cluster.shards[cluster.shard_of(first)]
        endpoint = (client.host.name, client.sock.port)
        assert endpoint in old_home.sessions
        assert len(cluster.subscriptions) == 1
        # same socket, new identity hashing onto a different shard
        client.client_id = second
        client.connected = False
        yield from client.connect()

    env.process(scenario(env))
    env.run()
    old_home = cluster.shards[cluster.shard_of(first)]
    new_home = cluster.shards[cluster.shard_of(second)]
    endpoint = next(iter(cluster.sessions))
    assert endpoint not in old_home.sessions
    assert endpoint in new_home.sessions
    # the fresh CONNECT reset subscriptions, exactly like a single broker
    assert len(cluster.subscriptions) == 0


def test_disconnect_releases_the_dispatcher_pin():
    """Churning endpoints must not accrete dispatcher state: the sticky
    pin is dropped once the DISCONNECT has been forwarded to its shard
    (and a later re-CONNECT simply pins afresh)."""
    env, net, cluster, (client,) = make_cluster_world(
        n_clients=1, shards=4, client_ids=["churner"],
    )
    marks = {}

    def scenario(env):
        yield from client.connect()
        endpoint = (client.host.name, client.sock.port)
        marks["pinned"] = endpoint in cluster.dispatcher.pins
        client.disconnect()
        yield env.timeout(0.5)
        marks["after_disconnect"] = endpoint in cluster.dispatcher.pins
        yield from client.connect()
        marks["after_reconnect"] = endpoint in cluster.dispatcher.pins

    env.process(scenario(env))
    env.run()
    assert marks == {
        "pinned": True, "after_disconnect": False, "after_reconnect": True,
    }
    assert len(cluster.sessions) == 1


def test_repin_purges_in_flight_qos_state_on_the_old_shard():
    """A subscriber with an unacked delivery re-identifies onto another
    shard: the old shard must drop its outbound QoS state instead of
    retransmitting to exhaustion and recording a spurious delivery
    failure for a client that is alive and acking (its acks follow the
    new pin)."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    pub_id, sub_id = ids_on_distinct_shards(cluster, 2)
    new_id = next(
        f"n{i}" for i in range(100)
        if cluster.shard_of(f"n{i}")
        not in (cluster.shard_of(pub_id), cluster.shard_of(sub_id))
    )
    env, net, cluster, (pub, sub) = make_cluster_world(
        shards=4, client_ids=[pub_id, sub_id], retry_interval_s=0.3,
        max_retries=3,
    )
    got = []
    real_send = sub._send

    def mute_acks(message):
        if isinstance(message, (pkt.Puback, pkt.Pubrec)):
            return  # delivery stays in flight on the subscriber's shard
        real_send(message)

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: got.append(p), qos=1)
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        sub._send = mute_acks
        yield from pub.publish(tid, b"inflight", qos=1)
        yield env.timeout(0.1)
        old_home = cluster.shards[cluster.shard_of(sub_id)]
        assert old_home._outbound  # the unacked delivery is tracked
        sub._send = real_send
        sub.client_id = new_id  # re-identify onto a third shard
        sub.connected = False
        yield from sub.connect()

    env.process(scenario(env))
    env.run()
    assert got == [b"inflight"]  # the delivery itself went out
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0  # no spurious give-up
    assert all(not shard._outbound for shard in cluster.shards)


def test_relayed_delivery_survives_session_replacement_in_flight():
    """A re-CONNECT racing the relay hop must not unsend the delivery:
    it was matched while the subscription was live (the single broker's
    dispatch-time rule, applied cross-shard)."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    pub_id, sub_id = ids_on_distinct_shards(cluster, 2)
    env, net, cluster, (pub, sub) = make_cluster_world(
        shards=4, client_ids=[pub_id, sub_id],
    )
    got = []

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("race/t", lambda t, p: got.append(p))
        yield from pub.connect()
        tid = yield from pub.register("race/t")
        yield env.timeout(0.5)
        origin = cluster.shards[cluster.shard_of(pub_id)]
        remote = cluster.shards[cluster.shard_of(sub_id)]
        pub_ep = next(
            ep for ep, s in origin.sessions.items() if s.client_id == pub_id
        )
        sub_ep = next(
            ep for ep, s in remote.sessions.items() if s.client_id == sub_id
        )
        # one origin service batch stages the relay...
        origin._dispatch(
            pkt.Publish(topic_id=tid, msg_id=0, payload=b"kept", qos=0), pub_ep
        )
        origin.relay.flush(origin)
        # ...and the subscriber's session is replaced before the relay
        # event fires (a same-instant re-CONNECT on its home shard)
        remote._dispatch(pkt.Connect(client_id=sub_id), sub_ep)

    env.process(scenario(env))
    env.run()
    assert got == [b"kept"]  # delivered with the session live at match time
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0


# ------------------------------------------------- p2c session placement


def skewed_ids(count, shard=0, shards=4, prefix="skew"):
    """Client ids that all hash onto ``shard`` on the shard ring (the
    adversarial workload for pure hash placement)."""
    from repro.hashring import ConsistentHashRing

    ring = ConsistentHashRing(shards, salt="shard")
    out, i = [], 0
    while len(out) < count:
        candidate = f"{prefix}{i}"
        if ring.node_for(candidate) == shard:
            out.append(candidate)
        i += 1
    return out


def test_p2c_balances_a_hash_clumped_connect_burst():
    """16 client ids that pure hashing would all home on shard 0 spread
    across the cluster under p2c placement, within the acceptance bound
    on max/mean session ratio."""
    ids = skewed_ids(16)
    env, net, cluster, clients = make_cluster_world(
        shards=4, client_ids=ids, placement="p2c",
    )

    def scenario(env):
        for client in clients:
            yield from client.connect()
            yield env.timeout(0.05)

    env.process(scenario(env))
    env.run()
    assert len(cluster.sessions) == 16
    assert cluster.p2c_placements.count == 16
    assert cluster.placement == "p2c"
    assert cluster.max_mean_session_ratio() <= 1.75
    occupied = [s for s in cluster.shards if s.sessions]
    assert len(occupied) >= 3  # hash placement would use exactly one


def test_p2c_placement_is_sticky_across_reconnects():
    ids = skewed_ids(6)
    env, net, cluster, clients = make_cluster_world(
        shards=4, client_ids=ids, placement="p2c",
    )
    homes = {}

    def scenario(env):
        for client in clients:
            yield from client.connect()
            yield env.timeout(0.05)
        for client in clients:
            endpoint = (client.host.name, client.sock.port)
            homes[client.client_id] = cluster.dispatcher.pins[endpoint]
        # retransmitted / repeated CONNECTs must not migrate the session
        for client in clients:
            client.connected = False
            yield from client.connect()

    env.process(scenario(env))
    env.run()
    for client in clients:
        endpoint = (client.host.name, client.sock.port)
        assert cluster.dispatcher.pins[endpoint] == homes[client.client_id]
    assert len(cluster.sessions) == 6


def test_p2c_never_places_on_a_dead_shard_and_failover_unsticks():
    """After a shard dies, no CONNECT — new or returning — may land on
    it: the sticky placement table invalidates every entry pointing at
    the corpse and p2c only samples live shards."""
    ids = skewed_ids(8)
    late_ids = skewed_ids(4, prefix="late")
    env, net, cluster, clients = make_cluster_world(
        shards=4, client_ids=ids + late_ids, placement="p2c",
    )
    early, late = clients[:8], clients[8:]
    victim = {}

    def scenario(env):
        for client in early:
            yield from client.connect()
            # subscribers (they hold filters) are *migrated* on failover;
            # bare publisher sessions would be dropped by design
            yield from client.subscribe(
                f"p2c/{client.client_id}", lambda t, p: None
            )
            yield env.timeout(0.05)
        # kill the shard currently holding the most sessions
        by_load = max(
            range(4), key=lambda i: len(cluster.shards[i].sessions)
        )
        victim["index"] = by_load
        cluster.kill_shard(by_load)
        yield env.timeout(1.0)  # let failover migrate the survivors
        for client in late:
            yield from client.connect()
            yield env.timeout(0.05)

    env.process(scenario(env))
    env.run()
    dead = victim["index"]
    assert not cluster.shards[dead].alive
    assert len(cluster.shards[dead].sessions) == 0
    # sticky entries never point at the corpse
    assert all(home != dead for home in cluster._placement.values())
    assert all(pin != dead for pin in cluster.dispatcher.pins.values())
    assert len(cluster.sessions) == 12  # everyone is somewhere alive


# --------------------------------------------- control-plane observability


def test_a_quiet_cluster_is_balanced_and_records_no_event():
    env, net, cluster, (a, b) = make_cluster_world(
        shards=4, client_ids=["statA", "statB"],
    )

    def scenario(env):
        yield from a.connect()
        yield from a.subscribe("stats/t", lambda t, p: None)
        yield from b.connect()

    env.process(scenario(env))
    env.run()
    assert cluster.placement == "hash"
    assert len(cluster.sessions) == 2
    assert len(cluster.shards) == 4
    assert sum(len(s.sessions) for s in cluster.shards) == 2
    for shard in cluster.shards:
        assert shard.alive
        assert shard.sock.pending == 0
    assert cluster.max_mean_session_ratio() >= 1.0
    assert env.metrics.events() == []


# ------------------------------------------- subscription handover (move)


def test_move_subscription_flips_routing_in_one_instant():
    """The pool's elastic handover primitive: discard on the old key and
    re-add under the new key atomically, so the next PUBLISH routes to
    the new subscriber and the old one never sees it."""
    env, net, cluster, (pub, s1, s2) = make_cluster_world(
        shards=4, client_ids=["mover", "oldsub", "newsub"],
    )
    got_old, got_new = [], []

    def scenario(env):
        yield from s1.connect()
        yield from s1.subscribe("mv/t", lambda t, p: got_old.append(p), qos=1)
        yield from s2.connect()
        s2.bind_filter("mv/t", lambda t, p: got_new.append(p))
        yield from pub.connect()
        tid = yield from pub.register("mv/t")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"before", qos=1)
        yield env.timeout(0.5)
        cluster.move_subscription(
            (s1.host.name, s1.sock.port), (s2.host.name, s2.sock.port),
            "mv/t", qos=1,
        )
        yield from pub.publish(tid, b"after", qos=1)
        yield env.timeout(0.5)

    env.process(scenario(env))
    env.run()
    assert got_old == [b"before"]
    assert got_new == [b"after"]
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0


def test_move_subscription_requires_the_old_holder():
    env, net, cluster, (a, b) = make_cluster_world(
        shards=4, client_ids=["holderless", "target"],
    )
    outcome = {}

    def scenario(env):
        yield from a.connect()
        yield from b.connect()
        try:
            cluster.move_subscription(
                (a.host.name, a.sock.port), (b.host.name, b.sock.port),
                "never/subscribed",
            )
        except KeyError:
            outcome["raised"] = True

    env.process(scenario(env))
    env.run()
    assert outcome == {"raised": True}


# -------------------------------------------------- shard-affinity rehoming


def test_sustained_cross_shard_traffic_rehomes_the_subscriber():
    """A subscriber whose deliveries keep originating on a remote shard
    migrates onto that shard (with its session, filters and pin), after
    which delivery is local — no relay hop, no loss, no duplicates."""
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    pub_id, sub_id = ids_on_distinct_shards(cluster, 2)
    env, net, cluster, (pub, sub) = make_cluster_world(
        shards=4, client_ids=[pub_id, sub_id],
    )
    cluster.REHOME_MIN_DELIVERIES = 16
    got = []
    relayed_at_rehome = {}

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("aff/t", lambda t, p: got.append(p), qos=1)
        yield from pub.connect()
        tid = yield from pub.register("aff/t")
        yield env.timeout(0.5)
        for i in range(32):
            yield from pub.publish(tid, b"m%d" % i, qos=1)
            yield env.timeout(0.02)
            if env.metrics.events("rehome") and "relayed" not in relayed_at_rehome:
                relayed_at_rehome["relayed"] = cluster.relayed.count

    env.process(scenario(env))
    env.run()
    [rehome] = env.metrics.events("rehome")
    assert rehome["new_shard"] == cluster.shard_of(pub_id)
    assert len(got) == 32  # zero loss, zero duplication across the move
    sub_endpoint = (sub.host.name, sub.sock.port)
    pub_home = cluster.shard_of(pub_id)
    assert sub_endpoint in cluster.shards[pub_home].sessions
    assert cluster.dispatcher.pins[sub_endpoint] == pub_home
    # deliveries after the move are local: the relay counter stopped
    assert cluster.relayed.count == relayed_at_rehome["relayed"]
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0


def test_rehome_subscriber_direct_call_and_edge_cases():
    env, net, cluster, _ = make_cluster_world(n_clients=0, shards=4)
    (sub_id,) = ids_on_distinct_shards(cluster, 1)
    env, net, cluster, (sub,) = make_cluster_world(
        shards=4, client_ids=[sub_id],
    )
    outcome = {}

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("direct/t", lambda t, p: None, qos=1)
        endpoint = (sub.host.name, sub.sock.port)
        home = cluster.shard_of(sub_id)
        target = (home + 1) % 4
        outcome["moved"] = cluster.rehome_subscriber(endpoint, target)
        outcome["same"] = cluster.rehome_subscriber(endpoint, target)
        outcome["unknown"] = cluster.rehome_subscriber(("ghost", 9), target)
        outcome["on_target"] = endpoint in cluster.shards[target].sessions
        outcome["filters"] = cluster.subscriptions.subscriptions_of(endpoint)

    env.process(scenario(env))
    env.run()
    assert outcome["moved"] is True
    assert outcome["same"] is False  # already there
    assert outcome["unknown"] is False
    assert outcome["on_target"] is True
    assert outcome["filters"] == [("direct/t", 1)]


def test_rehome_subscriber_rejected_on_single_shard():
    env, net, cluster, (solo,) = make_cluster_world(
        shards=1, client_ids=["solo"],
    )

    def scenario(env):
        yield from solo.connect()
        with pytest.raises(ValueError):
            cluster.rehome_subscriber((solo.host.name, solo.sock.port), 0)

    env.process(scenario(env))
    env.run()


def test_unknown_peer_traffic_is_dropped_with_accounting():
    """Non-CONNECT datagrams from unknown endpoints land on a
    deterministic shard and are counted as dropped, like a single broker."""
    env, net, cluster, (stranger,) = make_cluster_world(
        n_clients=1, shards=4, client_ids=["stranger"],
    )

    def scenario(env):
        # a PUBLISH without ever connecting
        stranger.sock.sendto(
            pkt.Publish(topic_id=1, msg_id=1, payload=b"?", qos=0).encode(),
            cluster.endpoint,
        )
        yield env.timeout(0.5)

    env.process(scenario(env))
    env.run()
    assert cluster.env.metrics.summed("broker", "dropped_no_session").count == 1
    assert cluster.dispatcher.dispatched.count == 1
