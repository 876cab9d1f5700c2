"""End-to-end MQTT-SN tests: client <-> broker over the simulated network."""

import pytest

from repro.mqttsn import DEFAULT_BROKER_PORT, MqttSnBroker, MqttSnClient, MqttSnTimeout
from repro.mqttsn import packets as pkt
from repro.net import Network, Packet
from repro.simkernel import Environment


def make_world(n_clients=1, latency=0.023, bandwidth=1e9, loss=0.0, seed=3):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    broker = MqttSnBroker(net.hosts["cloud"])
    clients = []
    for i in range(n_clients):
        name = f"edge-{i}"
        net.add_host(name)
        net.connect(name, "cloud", bandwidth_bps=bandwidth, latency_s=latency, loss=loss)
        clients.append(
            MqttSnClient(net.hosts[name], f"client-{i}", ("cloud", DEFAULT_BROKER_PORT),
                         retry_interval_s=0.5)
        )
    return env, net, broker, clients


def test_connect_handshake():
    env, net, broker, (client,) = make_world()
    done = {}

    def run(env):
        yield from client.connect()
        done["connected"] = client.connected
        done["time"] = env.now

    env.process(run(env))
    env.run()
    assert done["connected"]
    assert done["time"] == pytest.approx(0.046, rel=0.05)  # one RTT
    assert len(broker.sessions) == 1


def test_register_assigns_topic_id():
    env, net, broker, (client,) = make_world()
    out = {}

    def run(env):
        yield from client.connect()
        out["tid"] = yield from client.register("prov/edge-0")
        out["tid2"] = yield from client.register("prov/edge-0")

    env.process(run(env))
    env.run()
    assert out["tid"] >= 1
    assert out["tid"] == out["tid2"]  # stable


def test_publish_qos0_is_fire_and_forget():
    env, net, broker, clients = make_world(n_clients=2)
    pub, sub = clients
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("data", lambda t, p: got.append((t, p)), qos=0)

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("data")
        yield env.timeout(0.5)  # let the subscription settle
        yield from pub.publish(tid, b"hello", qos=0)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [("data", b"hello")]


def test_publish_qos2_end_to_end():
    env, net, broker, clients = make_world(n_clients=2)
    pub, sub = clients
    got = []
    timing = {}

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/#", lambda t, p: got.append((t, p, env.now)))

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("prov/e0/data")
        yield env.timeout(0.5)
        start = env.now
        yield from pub.publish(tid, b"record-1", qos=2)
        timing["publish_latency"] = env.now - start

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert [(t, p) for t, p, _ in got] == [("prov/e0/data", b"record-1")]
    # QoS2 completion takes 2 RTTs (PUBLISH/PUBREC then PUBREL/PUBCOMP)
    assert timing["publish_latency"] == pytest.approx(0.092, rel=0.1)


def test_publish_nowait_does_not_block():
    env, net, broker, clients = make_world(n_clients=1)
    (pub,) = clients
    marks = {}

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        t0 = env.now
        done = pub.publish_nowait(tid, b"x", qos=2)
        marks["inline"] = env.now - t0
        yield done
        marks["completed"] = env.now - t0

    env.process(publisher(env))
    env.run()
    assert marks["inline"] == 0.0
    assert marks["completed"] > 0.09  # 2 RTT for the QoS2 handshake


def test_qos2_exactly_once_under_loss():
    env, net, broker, clients = make_world(n_clients=2, loss=0.25, seed=11)
    pub, sub = clients
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("d", lambda t, p: got.append(p))

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("d")
        yield env.timeout(0.5)
        for i in range(10):
            yield from pub.publish(tid, b"m%d" % i, qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    # every message delivered exactly once despite 25% datagram loss
    assert sorted(got) == [b"m%d" % i for i in range(10)]


def test_publish_before_connect_rejected():
    env, net, broker, (client,) = make_world()
    from repro.mqttsn import MqttSnError

    with pytest.raises(MqttSnError):
        client.publish_nowait(1, b"x")


def test_unknown_topic_id_dropped_by_broker():
    env, net, broker, (client,) = make_world()

    def run(env):
        yield from client.connect()
        yield from client.publish(999, b"void", qos=0)

    env.process(run(env))
    env.run()
    assert broker.forwarded.count == 0


def test_multiple_publishers_fan_in_to_one_subscriber():
    env, net, broker, clients = make_world(n_clients=4)
    *pubs, sub = clients
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/+/data", lambda t, p: got.append((t, p)))

    def publisher(env, client, idx):
        yield from client.connect()
        tid = yield from client.register(f"prov/{idx}/data")
        yield env.timeout(0.5)
        yield from client.publish(tid, b"payload-%d" % idx, qos=2)

    env.process(subscriber(env))
    for i, p in enumerate(pubs):
        env.process(publisher(env, p, i))
    env.run()
    assert sorted(got) == [(f"prov/{i}/data", b"payload-%d" % i) for i in range(3)]


def test_subscriber_qos_downgrades_delivery():
    env, net, broker, clients = make_world(n_clients=2)
    pub, sub = clients
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: got.append(p), qos=0)

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.5)
        yield from pub.publish(tid, b"x", qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [b"x"]


def test_ping_roundtrip():
    env, net, broker, (client,) = make_world()
    done = {}

    def run(env):
        yield from client.connect()
        t0 = env.now
        yield from client.ping()
        done["rtt"] = env.now - t0

    env.process(run(env))
    env.run()
    assert done["rtt"] == pytest.approx(0.046, rel=0.05)


def test_disconnect_removes_session():
    env, net, broker, (client,) = make_world()

    def run(env):
        yield from client.connect()
        client.disconnect()
        yield env.timeout(1.0)

    env.process(run(env))
    env.run()
    assert len(broker.sessions) == 0
    assert not client.connected


def test_messages_from_unconnected_peer_dropped():
    env, net, broker, (client,) = make_world()
    from repro.mqttsn import packets as pkt

    def run(env):
        # skip CONNECT entirely
        client._send(pkt.Publish(topic_id=1, msg_id=1, payload=b"x", qos=0))
        yield env.timeout(1.0)

    env.process(run(env))
    env.run()
    assert broker.dropped_no_session.count == 1


def test_names_that_are_not_utf8_are_dropped_and_serving_goes_on():
    """A CONNECT, REGISTER or SUBSCRIBE whose client id or topic name is
    not UTF-8 is a malformed datagram: the broker and a client drop it
    like any other and keep serving (it used to raise out of the run)."""
    env, net, broker, (pub, sub) = make_world(n_clients=2)
    broker_ep = ("cloud", DEFAULT_BROKER_PORT)
    bad_connect = bytes((7, pkt.MT_CONNECT, pkt.FLAG_CLEAN, 0x01, 0, 60, 0xFF))
    bad_register = bytes((7, pkt.MT_REGISTER, 0, 0, 0, 1, 0xFF))
    bad_subscribe = bytes((6, pkt.MT_SUBSCRIBE, 0x40, 0, 2, 0xFE))
    stranger = net.hosts["cloud"].udp_socket()
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("prov/#", lambda t, p: got.append((t, p)))
        # a broker-side REGISTER whose name is not UTF-8, to the client
        stranger.sendto(bad_register, (sub.host.name, sub.sock.port))

    def publisher(env):
        yield from pub.connect()
        for datagram in (bad_connect, bad_register, bad_subscribe):
            pub.sock.sendto(datagram, broker_ep)
        yield env.timeout(0.5)
        tid = yield from pub.register("prov/e0/data")
        yield from pub.publish(tid, b"after", qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [("prov/e0/data", b"after")]
    assert len(broker.sessions) == 2 and broker.alive


def test_connect_times_out_without_broker():
    env = Environment()
    net = Network(env)
    net.add_host("edge")
    net.add_host("nowhere")
    net.connect("edge", "nowhere", bandwidth_bps=1e9, latency_s=0.01)
    client = MqttSnClient(net.hosts["edge"], "c", ("nowhere", 1883),
                          retry_interval_s=0.1, max_retries=2)
    failures = []

    def run(env):
        try:
            yield from client.connect()
        except MqttSnTimeout as exc:
            failures.append(str(exc))

    env.process(run(env))
    env.run()
    assert len(failures) == 1


def test_sixty_four_publishers_all_delivered():
    env, net, broker, clients = make_world(n_clients=65)
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
    assert len(got) == 64


def crash_world(service_time_s):
    """A broker whose one datagram, a CONNECT, arrives at t = 1 s; returns
    the environment, the broker and the messages it sends."""
    env = Environment()
    net = Network(env, seed=3)
    broker = MqttSnBroker(
        net.add_host("cloud"), service_time_s=service_time_s, batch_fixed_s=0.0
    )
    sent = []
    broker._send = lambda message, dest: sent.append(message)
    packet = Packet(
        src=("edge", 9), dst=("cloud", DEFAULT_BROKER_PORT), protocol="udp",
        payload=pkt.Connect(client_id="c").encode(),
    )
    env.call_later(1.0, broker.sock._deliver, packet)
    return env, broker, sent


def test_broker_serves_the_crash_world_datagram_without_a_crash():
    env, broker, sent = crash_world(service_time_s=0.5)
    env.run()
    assert [type(m) for m in sent] == [pkt.Connack]
    assert broker.alive and broker.serviced_batches.count == 1


def test_broker_crash_drops_the_batch_in_service():
    env, broker, sent = crash_world(service_time_s=0.5)
    env.call_later(1.25, broker.crash)
    env.run()
    assert broker.crashed and not broker.alive
    assert sent == [] and not broker.sessions
    assert broker.serviced_batches.count == 0


def test_broker_crash_voids_a_pending_wake():
    # the crash timer is due in the delivery's instant, so the broker's
    # wake is deferred behind it and must find the broker dead
    env, broker, sent = crash_world(service_time_s=0.0)
    env.call_later(1.0, broker.crash)
    env.run()
    assert sent == [] and not broker.sessions
    assert broker.serviced_batches.count == 0
    broker.crash()  # idempotent
    assert not broker.alive
