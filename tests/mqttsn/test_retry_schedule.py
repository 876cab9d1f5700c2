"""Retransmission timing of the MQTT-SN client and broker watchdogs.

Every tracked exchange arms one watchdog at its first send; each firing
that finds the exchange still open resends and re-arms, so resends land
at ``t0 + k * retry_interval_s`` for ``k = 1..max_retries`` and the
give-up (``MqttSnTimeout`` at the client, ``delivery_failures`` at the
broker) one interval after the last resend.  A QoS 2 publish whose
acknowledgements come back promptly must not pay for its watchdog with a
simulation process.
"""

import pytest

from repro.mqttsn import DEFAULT_BROKER_PORT, MqttSnBroker, MqttSnClient, MqttSnTimeout
from repro.mqttsn import packets as pkt
from repro.net import Network
from repro.simkernel import Environment, Process
from ..waiting import outcome

INTERVAL = 0.3
RETRIES = 4


def make_world(n_clients=2):
    env = Environment()
    net = Network(env, seed=3)
    net.add_host("cloud")
    broker = MqttSnBroker(
        net.hosts["cloud"], retry_interval_s=INTERVAL, max_retries=RETRIES
    )
    clients = []
    for i in range(n_clients):
        net.add_host(f"edge-{i}")
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        clients.append(
            MqttSnClient(
                net.hosts[f"edge-{i}"], f"c{i}", ("cloud", DEFAULT_BROKER_PORT),
                retry_interval_s=INTERVAL, max_retries=RETRIES,
            )
        )
    return env, net, broker, clients


def record_sends(env, endpoint):
    """Wrap ``endpoint._send`` to log ``(now, message, dup, *args)``;
    ``dup`` is read at send time (a resend flips it on the same object)."""
    sent = []
    real_send = endpoint._send

    def spy(message, *args):
        sent.append((env.now, message, getattr(message, "dup", False)) + args)
        real_send(message, *args)

    endpoint._send = spy
    return sent


def expected_times(t0, count):
    """``t0 + k * INTERVAL`` for ``k = 1..count``."""
    return [pytest.approx(t0 + k * INTERVAL, abs=1e-9) for k in range(1, count + 1)]


def test_client_publish_resends_dup_on_schedule_then_times_out():
    env, net, broker, (pub, _) = make_world()
    sent = record_sends(env, pub)
    outcome = {}

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        net.link("edge-0", "cloud").partition()
        outcome["t0"] = env.now
        try:
            yield from pub.publish(tid, b"x", qos=2)
        except MqttSnTimeout:
            outcome["timeout"] = env.now

    env.process(publisher(env))
    env.run()
    t0 = outcome["t0"]
    publishes = [(t, dup) for t, m, dup in sent if isinstance(m, pkt.Publish)]
    assert publishes[0] == (t0, False)
    assert [t for t, _ in publishes[1:]] == expected_times(t0, RETRIES)
    assert all(dup for _, dup in publishes[1:])
    assert outcome["timeout"] == pytest.approx(t0 + (RETRIES + 1) * INTERVAL, abs=1e-9)


def test_client_pubrel_resends_on_the_publish_schedule():
    env, net, broker, (pub, _) = make_world()
    sent = record_sends(env, pub)
    outcome = {}

    def cut_uplink_after_publish(env):
        # the PUBLISH is past the uplink and its PUBREC still in flight
        yield env.timeout(0.015)
        net.link("edge-0", "cloud").partition()

    def publisher(env):
        yield from pub.connect()
        tid = yield from pub.register("t")
        outcome["t0"] = env.now
        env.process(cut_uplink_after_publish(env))
        try:
            yield from pub.publish(tid, b"x", qos=2)
        except MqttSnTimeout:
            outcome["timeout"] = env.now

    env.process(publisher(env))
    env.run()
    t0 = outcome["t0"]
    pubrels = [t for t, m, _ in sent if isinstance(m, pkt.Pubrel)]
    # one PUBREL answering the PUBREC, then one per watchdog firing
    assert t0 < pubrels[0] < t0 + INTERVAL
    assert pubrels[1:] == expected_times(t0, RETRIES)
    assert not [m for t, m, _ in sent if isinstance(m, pkt.Publish) and t > t0]
    assert outcome["timeout"] == pytest.approx(t0 + (RETRIES + 1) * INTERVAL, abs=1e-9)


def test_client_register_resends_on_schedule_then_times_out():
    env, net, broker, (pub, _) = make_world()
    sent = record_sends(env, pub)
    outcome = {}

    def publisher(env):
        yield from pub.connect()
        net.link("edge-0", "cloud").partition()
        outcome["t0"] = env.now
        try:
            yield from pub.register("t")
        except MqttSnTimeout:
            outcome["timeout"] = env.now

    env.process(publisher(env))
    env.run()
    t0 = outcome["t0"]
    registers = [t for t, m, _ in sent if isinstance(m, pkt.Register)]
    assert registers == [t0] + expected_times(t0, RETRIES)
    assert outcome["timeout"] == pytest.approx(t0 + (RETRIES + 1) * INTERVAL, abs=1e-9)


def _broker_group_scenario(crash=False):
    """Two QoS 2 PUBLISHes from two devices land in one broker batch and
    leave as one delivery group towards a subscriber whose downlink is
    cut; returns the broker's PUBLISH sends to the subscriber and the
    broker.  With ``crash`` the broker dies between the first and the
    second resend."""
    env, net, broker, (sub, *pubs) = make_world(n_clients=3)
    sent = record_sends(env, broker)
    dest = ("edge-0", sub.sock.port)

    def to_sub():
        return [
            (t, dup) for t, m, dup, d in sent if d == dest and isinstance(m, pkt.Publish)
        ]

    def subscriber(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: None)
        net.link("cloud", "edge-0").partition()

    def publisher(env, client, payload):
        yield from client.connect()
        tid = yield from client.register("t")
        yield env.timeout(0.5 - env.now)
        yield from client.publish(tid, payload, qos=2)

    def crasher(env):
        while not to_sub():
            yield env.timeout(0.01)
        yield env.timeout(1.5 * INTERVAL)
        broker.crash()

    env.process(subscriber(env))
    for client, payload in zip(pubs, (b"a", b"b")):
        env.process(publisher(env, client, payload))
    if crash:
        env.process(crasher(env))
    env.run()
    return to_sub(), broker


def test_broker_group_resends_on_schedule_and_counts_each_failure():
    publishes, broker = _broker_group_scenario()
    t1 = publishes[0][0]
    assert [t for t, _ in publishes[:2]] == [t1, t1]
    assert not any(dup for _, dup in publishes[:2])
    resends = publishes[2:]
    assert [t for t, _ in resends] == [
        when for when in expected_times(t1, RETRIES) for _ in range(2)
    ]
    assert all(dup for _, dup in resends)
    assert broker.delivery_failures.count == 2  # once per message
    assert not broker._outbound


def test_crashed_broker_sends_nothing_further():
    publishes, broker = _broker_group_scenario(crash=True)
    t1 = publishes[0][0]
    assert [t for t, _ in publishes] == [t1, t1] + expected_times(t1, 1) * 2
    assert broker.crashed
    assert broker.delivery_failures.count == 0


def test_acked_qos2_publish_spawns_no_process(monkeypatch):
    env, net, broker, (pub, sub) = make_world()
    got = []

    def setup(env):
        yield from sub.connect()
        yield from sub.subscribe("t", lambda t, p: got.append(p))
        yield from pub.connect()
        return (yield from pub.register("t"))

    tid = env.run(env.process(setup(env)))
    spawned = []
    real_init = Process.__init__

    def spy(self, *args, **kwargs):
        spawned.append(kwargs.get("name"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", spy)
    done, on_done = outcome(env)
    pub.publish_nowait(tid, b"x", qos=2, on_done=on_done)
    env.run(done)
    env.run()
    assert got == [b"x"]
    assert not broker._outbound and not pub._pending
    assert spawned == []
