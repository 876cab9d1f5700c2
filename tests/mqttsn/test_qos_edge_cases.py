"""Broker QoS edge cases: msg-id wraparound, retry exhaustion with the
delivery-failure counter, and wildcard REGISTER/REGACK interleavings
under the subscription routing index — against a standalone broker and
against a two-shard :class:`BrokerCluster` (the retry/`delivery_failures`
semantics must hold when the delivery crosses shards)."""

import pytest

from repro.mqttsn import BrokerCluster, DEFAULT_BROKER_PORT, MqttSnBroker, MqttSnClient
from repro.mqttsn import packets as pkt
from repro.net import Network
from repro.simkernel import Environment


def make_world(n_clients=2, loss=0.0, seed=7, retry_interval_s=0.3, max_retries=5):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    broker = MqttSnBroker(
        net.hosts["cloud"], retry_interval_s=retry_interval_s, max_retries=max_retries
    )
    clients = []
    for i in range(n_clients):
        net.add_host(f"edge-{i}")
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01,
                    loss=loss)
        clients.append(
            MqttSnClient(net.hosts[f"edge-{i}"], f"c{i}",
                         ("cloud", DEFAULT_BROKER_PORT), retry_interval_s=0.3)
        )
    return env, net, broker, clients


def _session_of(broker, client_id):
    return next(s for s in broker.sessions.values() if s.client_id == client_id)


def test_outbound_msg_id_wraparound_on_0x10000_cycle():
    """Broker-assigned msg ids cycle 1..0xFFFF; delivery must survive the
    wrap back to 1 without stuck or colliding QoS state."""
    env, net, broker, (pub, sub) = make_world()
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("wrap", lambda t, p: got.append(p))
        # spin the broker-side id generator to 3 ids before the wrap, so
        # the publishes below cross 0xFFFF -> 1
        session = _session_of(broker, "c1")
        for _ in range(0xFFFF - 4):
            next(session.msg_ids)

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("wrap")
        yield env.timeout(0.5)
        for i in range(8):
            yield from pub.publish(tid, b"m%d" % i, qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [b"m%d" % i for i in range(8)]  # exactly once, in order
    assert not broker._outbound  # every QoS 2 exchange completed
    assert broker.delivery_failures.count == 0


def test_qos2_retry_exhaustion_records_delivery_failure():
    """An unreachable subscriber exhausts the retry budget; the broker
    gives up and the give-up is observable on ``delivery_failures``."""
    env, net, broker, (pub, sub) = make_world(retry_interval_s=0.2, max_retries=3)

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: None)
        yield env.timeout(0.2)
        sub.sock.close()  # subscriber vanishes: PUBLISH is never PUBRECed

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"x", qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert broker.delivery_failures.count == 1
    assert not broker._outbound  # abandoned state was cleaned up


def test_qos2_redelivery_is_duplicate_suppressed_when_pubrec_lost():
    """Subscriber receives the PUBLISH but its PUBREC never reaches the
    broker: the broker retransmits with DUP until exhaustion, yet the
    handler fires exactly once (QoS 2 duplicate suppression)."""
    env, net, broker, (pub, sub) = make_world(retry_interval_s=0.2, max_retries=3)
    got = []
    real_send = sub._send

    def mute_qos2_acks(message):
        if isinstance(message, (pkt.Pubrec, pkt.Pubcomp)):
            return  # swallowed on the way back to the broker
        real_send(message)

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: got.append(p))
        sub._send = mute_qos2_acks

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"only-once", qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [b"only-once"]  # retransmissions were suppressed
    assert broker.delivery_failures.count == 1  # broker eventually gave up


def test_wildcard_register_precedes_coalesced_publishes():
    """Two back-to-back publishes to a topic the wildcard subscriber has
    never seen arrive in one broker batch: the broker-initiated REGISTER
    must come first so both PUBLISHes resolve to the topic name."""
    env, net, broker, (pub, sub) = make_world()
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/#", lambda t, p: got.append((t, p)))

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("prov/dev/fresh")
        yield env.timeout(0.5)
        # nowait back-to-back: both PUBLISHes land in one broker wakeup
        first = pub.publish_nowait(tid, b"a", qos=2)
        second = pub.publish_nowait(tid, b"b", qos=2)
        yield first
        yield second

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [("prov/dev/fresh", b"a"), ("prov/dev/fresh", b"b")]
    assert not broker._outbound


def test_wildcard_subscriber_exactly_once_under_loss():
    """REGISTER/REGACK and the QoS 2 handshake race with 25% datagram
    loss; every payload still arrives exactly once."""
    from repro.mqttsn import MqttSnTimeout

    env, net, broker, (pub, sub) = make_world(loss=0.25, seed=19)
    got = []
    confirmed = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/#", lambda t, p: got.append(p))

    def publisher(env):
        yield from pub.connect()
        yield env.timeout(1.0)
        for i in range(6):
            payload = b"m%d" % i
            try:
                tid = yield from pub.register(f"prov/dev/{i}")
                yield from pub.publish(tid, payload, qos=2)
            except MqttSnTimeout:
                continue  # publisher gave up; broker may still have it
            confirmed.append(payload)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    # no duplicates despite retransmitted PUBLISHes and REGISTERs...
    assert len(got) == len(set(got))
    # ...and everything the publisher confirmed reached the subscriber
    assert set(confirmed) <= set(got)
    assert len(confirmed) >= 3  # the lossy link still made progress


def test_reconnect_within_batch_delivers_with_the_old_session_state():
    """PUBLISH, DISCONNECT and re-CONNECT of the subscriber landing in
    one service batch: the delivery was staged while the subscription
    was live, so it still goes out (the seed delivered at dispatch
    time) — using the *old* session's state, so no broker-initiated
    REGISTER is wasted on the fresh replacement session."""
    env, net, broker, (pub, sub) = make_world()
    got = []

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: got.append(p))
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        pub_ep = next(ep for ep, s in broker.sessions.items() if s.client_id == "c0")
        sub_ep = next(ep for ep, s in broker.sessions.items() if s.client_id == "c1")
        # hand-dispatch one batch against the live broker state
        broker._dispatch(
            pkt.Publish(topic_id=tid, msg_id=77, payload=b"in-flight", qos=0), pub_ep
        )
        broker._dispatch(pkt.Disconnect(), sub_ep)
        broker._dispatch(pkt.Connect(client_id="c1"), sub_ep)
        broker._flush_deliveries()
        # the replacement session holds no subscriptions going forward
        assert broker.subscriptions.match("t") == []

    env.process(scenario(env))
    env.run()
    assert got == [b"in-flight"]  # staged while the subscription was live
    assert broker.forwarded.count == 1
    assert not broker._outbound
    assert broker.delivery_failures.count == 0


def test_disconnect_within_batch_still_delivers_like_the_seed():
    """A plain DISCONNECT arriving after the PUBLISH in the same batch
    must not swallow the delivery: the subscription was live when the
    PUBLISH was dispatched (the seed delivered at dispatch time)."""
    env, net, broker, (pub, sub) = make_world()
    got = []

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: got.append(p))
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        pub_ep = next(ep for ep, s in broker.sessions.items() if s.client_id == "c0")
        sub_ep = next(ep for ep, s in broker.sessions.items() if s.client_id == "c1")
        broker._dispatch(
            pkt.Publish(topic_id=tid, msg_id=78, payload=b"last-words", qos=0), pub_ep
        )
        broker._dispatch(pkt.Disconnect(), sub_ep)
        broker._flush_deliveries()

    env.process(scenario(env))
    env.run()
    assert got == [b"last-words"]
    assert broker.forwarded.count == 1


def make_two_shard_world(retry_interval_s=0.3, max_retries=5, seed=7):
    """A 2-shard cluster with a publisher and a subscriber homed on
    *different* shards (client ids picked off the cluster's own ring)."""
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    cluster = BrokerCluster(
        net.hosts["cloud"], shards=2,
        retry_interval_s=retry_interval_s, max_retries=max_retries,
    )
    pub_id = "pub0"
    sub_id = next(
        f"sub{i}" for i in range(100)
        if cluster.shard_of(f"sub{i}") != cluster.shard_of(pub_id)
    )
    clients = []
    for i, client_id in enumerate((pub_id, sub_id)):
        net.add_host(f"edge-{i}")
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        clients.append(
            MqttSnClient(net.hosts[f"edge-{i}"], client_id,
                         cluster.endpoint, retry_interval_s=0.3)
        )
    return env, net, cluster, clients


def test_cross_shard_qos2_retry_exhaustion_records_delivery_failure():
    """The single-broker give-up semantics survive sharding: an
    unreachable subscriber homed on the *other* shard exhausts the retry
    budget there, and the give-up shows on the cluster counter."""
    env, net, cluster, (pub, sub) = make_two_shard_world(
        retry_interval_s=0.2, max_retries=3,
    )

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: None)
        yield env.timeout(0.2)
        sub.sock.close()  # subscriber vanishes: PUBLISH is never PUBRECed

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"x", qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 1
    # ...and specifically on the subscriber's home shard
    sub_home = cluster.shards[cluster.shard_of(sub.client_id)]
    assert sub_home.delivery_failures.count == 1
    assert all(not shard._outbound for shard in cluster.shards)


def test_cross_shard_coalesced_publishes_share_one_register():
    """Two QoS-1 publishes dispatched in one origin-shard service batch
    and relayed to a wildcard subscriber on the other shard arrive as one
    coalesced flush group there: exactly one broker-initiated REGISTER
    precedes the pair (the per-group REGISTER dedup is only reachable
    when the relay batched both under a single flush/retry timer)."""
    env, net, cluster, (pub, sub) = make_two_shard_world()
    got = []
    registers = []
    real_deliver = sub.sock._deliver

    def spy_deliver(packet):
        message = pkt.decode(packet.payload)
        if isinstance(message, pkt.Register):
            registers.append(message)
        real_deliver(packet)

    sub.sock._deliver = spy_deliver

    def scenario(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/#", lambda t, p: got.append((t, p)))
        yield from pub.connect()
        tid = yield from pub.register("prov/dev/fresh")
        yield env.timeout(0.5)
        origin = cluster.shards[cluster.shard_of(pub.client_id)]
        pub_ep = next(
            ep for ep, s in origin.sessions.items()
            if s.client_id == pub.client_id
        )
        # hand-dispatch one service batch against the live origin shard
        # (the wire analog — two nowait publishes — may split across
        # wakeups depending on link serialization timing)
        origin._dispatch(
            pkt.Publish(topic_id=tid, msg_id=101, payload=b"a", qos=1), pub_ep
        )
        origin._dispatch(
            pkt.Publish(topic_id=tid, msg_id=102, payload=b"b", qos=1), pub_ep
        )
        if origin._batch_deliveries:
            origin._flush_deliveries()
        origin.relay.flush(origin)

    env.process(scenario(env))
    env.run()
    assert got == [("prov/dev/fresh", b"a"), ("prov/dev/fresh", b"b")]
    assert len(registers) == 1  # coalesced: one REGISTER for the pair
    # one relay event carried both cross-shard deliveries
    assert cluster.relayed.count == 1
    assert cluster.relayed.total == 2
    assert all(not shard._outbound for shard in cluster.shards)
    assert cluster.env.metrics.summed("broker", "delivery_failures").count == 0


def test_fan_in_is_serviced_in_batches():
    """Concurrent publishers queue datagrams while the broker services the
    previous batch; the receive loop drains them in grouped wakeups."""
    env, net, broker, clients = make_world(n_clients=17)
    *pubs, sub = clients
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/#", lambda t, p: got.append(p))

    def publisher(env, client, idx):
        yield from client.connect()
        tid = yield from client.register(f"prov/{idx}")
        yield env.timeout(0.5)
        yield from client.publish(tid, b"%d" % idx, qos=2)

    env.process(subscriber(env))
    for i, p in enumerate(pubs):
        env.process(publisher(env, p, i))
    env.run()
    assert len(got) == 16
    # total datagrams serviced across fewer wakeups than datagrams
    assert broker.serviced_batches.total > broker.serviced_batches.count
