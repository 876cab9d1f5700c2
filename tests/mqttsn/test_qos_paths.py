"""QoS 1 paths and broker robustness details not covered elsewhere."""

import pytest

from repro.mqttsn import DEFAULT_BROKER_PORT, MqttSnBroker, MqttSnClient
from repro.mqttsn import packets as pkt
from repro.net import Network
from repro.simkernel import Environment


def make_world(n_clients=2, loss=0.0, seed=5):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    broker = MqttSnBroker(net.hosts["cloud"])
    clients = []
    for i in range(n_clients):
        net.add_host(f"edge-{i}")
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01,
                    loss=loss)
        clients.append(MqttSnClient(net.hosts[f"edge-{i}"], f"c{i}",
                                    ("cloud", DEFAULT_BROKER_PORT),
                                    retry_interval_s=0.3))
    return env, net, broker, clients


def test_qos1_publish_completes_on_puback():
    env, net, broker, (pub, sub) = make_world()
    got = []
    timing = {}

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("q1", lambda t, p: got.append(p), qos=1)

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("q1")
        yield env.timeout(0.3)
        t0 = env.now
        yield from pub.publish(tid, b"once", qos=1)
        timing["latency"] = env.now - t0

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert got == [b"once"]
    # QoS1: one RTT (PUBLISH/PUBACK), half of QoS2's two
    assert timing["latency"] == pytest.approx(0.02, rel=0.15)


def test_qos1_retransmission_may_duplicate():
    """At-least-once: under loss, the subscriber may see duplicates —
    exactly the contract difference that motivates QoS 2."""
    env, net, broker, (pub, sub) = make_world(loss=0.3, seed=23)
    got = []

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("q1", lambda t, p: got.append(p), qos=1)

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("q1")
        yield env.timeout(1.0)
        for i in range(8):
            try:
                yield from pub.publish(tid, b"m%d" % i, qos=1)
            except pkt.MqttSnError:
                pass  # 30% loss may exhaust QoS retries; that is the point

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    # everything that completed arrived at least once
    assert len(set(got)) >= len(got) - len(got) // 2
    assert len(got) >= 1


def test_register_invalid_topic_gets_error_regack():
    env, net, broker, (client,) = make_world(n_clients=1)
    failures = []

    def run(env):
        yield from client.connect()
        # wildcard registration is invalid
        msg_id = 999
        client._send(pkt.Register(topic_id=0, msg_id=msg_id, topic_name="a/+/b"))
        yield env.timeout(1.0)

    env.process(run(env))
    env.run()
    # broker answered with RC_INVALID_TOPIC (client ignores unsolicited
    # regacks; we just assert no crash and no topic registered)
    assert "a/+/b" not in broker.topics


def test_subscribe_invalid_filter_rejected_by_broker():
    env, net, broker, (client,) = make_world(n_clients=1)
    results = {}

    def run(env):
        yield from client.connect()
        # craft an invalid filter ('#' not last)
        msg_id = 5
        done = env.event()
        client._pending[("subscribe", msg_id)] = type(
            "P", (), {"kind": "subscribe", "done": done, "message": None,
                      "state": "sent"}
        )()
        client._send(pkt.Subscribe(msg_id=msg_id, topic_name="a/#/b", qos=1))
        suback = yield done
        results["rc"] = suback.return_code

    env.process(run(env))
    env.run()
    assert results["rc"] == pkt.RC_INVALID_TOPIC


def test_broker_counts_forwarded_bytes():
    env, net, broker, (pub, sub) = make_world()

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: None)

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        yield env.timeout(0.3)
        yield from pub.publish(tid, b"x" * 100, qos=2)

    env.process(subscriber(env))
    env.process(publisher(env))
    env.run()
    assert broker.forwarded.count == 1
    assert broker.forwarded.total == 100


def test_publisher_without_subscribers_is_fine():
    env, net, broker, (pub,) = make_world(n_clients=1)

    def run(env):
        yield from pub.connect()
        tid = yield from pub.register("lonely")
        yield from pub.publish(tid, b"void", qos=2)

    env.process(run(env))
    env.run()
    assert broker.forwarded.count == 0  # nothing to forward, no error
