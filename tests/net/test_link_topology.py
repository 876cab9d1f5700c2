"""Tests for links, routing and the Network facade."""

import pytest

from repro.net import Link, Network, Packet, UnroutableError
from repro.simkernel import Environment


def make_pair(bandwidth=1e9, latency=0.01, **kw):
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", bandwidth_bps=bandwidth, latency_s=latency, **kw)
    return env, net


def test_link_delivery_time_is_serialization_plus_latency():
    env = Environment()
    delivered = []
    link = Link(env, "a", "b", bandwidth_bps=8000.0, latency_s=0.5)
    pkt = Packet(src=("a", 1), dst=("b", 2), protocol="udp", payload=b"x" * 972)
    # size = 972 + 28 = 1000 bytes = 8000 bits -> serialization 1.0s
    link.send(pkt, lambda p: delivered.append((p, env.now)))
    env.run()
    assert delivered[0][1] == pytest.approx(1.5)


def test_link_fifo_queueing_serializes_transmissions():
    env = Environment()
    delivered = []
    link = Link(env, "a", "b", bandwidth_bps=8000.0, latency_s=0.0)
    for i in range(3):
        pkt = Packet(src=("a", 1), dst=("b", 2), protocol="udp", payload=b"x" * 972)
        link.send(pkt, lambda p, i=i: delivered.append((i, env.now)))
    env.run()
    assert [t for _, t in delivered] == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_link_propagation_is_pipelined():
    # with a long latency, back-to-back packets overlap in flight
    env = Environment()
    delivered = []
    link = Link(env, "a", "b", bandwidth_bps=8e6, latency_s=1.0)
    for i in range(2):
        pkt = Packet(src=("a", 1), dst=("b", 2), protocol="udp", payload=b"x" * 972)
        link.send(pkt, lambda p, i=i: delivered.append(env.now))
    env.run()
    # serialization 1ms each; arrivals at ~1.001 and ~1.002, not 2.x
    assert delivered[0] == pytest.approx(1.001)
    assert delivered[1] == pytest.approx(1.002)


def test_link_loss_drops_packets_deterministically():
    env = Environment()
    import numpy as np

    delivered = []
    link = Link(env, "a", "b", bandwidth_bps=1e9, latency_s=0.0, loss=0.5,
                rng=np.random.default_rng(42))
    for _ in range(200):
        pkt = Packet(src=("a", 1), dst=("b", 2), protocol="udp", payload=b"x")
        link.send(pkt, lambda p: delivered.append(p))
    env.run()
    assert 60 < len(delivered) < 140  # ~100 expected
    assert link.dropped.count == 200 - len(delivered)


def test_link_parameter_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, "a", "b", bandwidth_bps=0, latency_s=0)
    with pytest.raises(ValueError):
        Link(env, "a", "b", bandwidth_bps=1, latency_s=-1)
    with pytest.raises(ValueError):
        Link(env, "a", "b", bandwidth_bps=1, latency_s=0, loss=1.0)


def test_link_reconfigure_at_runtime():
    env, net = make_pair(bandwidth=8000.0, latency=0.0)
    link = net.link("a", "b")
    link.configure(bandwidth_bps=16000.0)
    assert link.bandwidth_bps == 16000.0
    with pytest.raises(ValueError):
        link.configure(loss=2.0)


def test_network_duplicate_host_rejected():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    with pytest.raises(ValueError):
        net.add_host("a")


def test_network_duplicate_link_rejected():
    env, net = make_pair()
    with pytest.raises(ValueError):
        net.connect("a", "b", bandwidth_bps=1e9, latency_s=0)


def test_network_link_lookup():
    env, net = make_pair()
    assert net.link("a", "b").src == "a"
    assert net.link("b", "a").src == "b"
    with pytest.raises(KeyError):
        net.link("a", "zzz")


def test_route_multi_hop():
    env = Environment()
    net = Network(env)
    for name in "abc":
        net.add_host(name)
    net.connect("a", "b", bandwidth_bps=1e9, latency_s=0.01)
    net.connect("b", "c", bandwidth_bps=1e9, latency_s=0.01)
    assert net.route("a", "c") == ["a", "b", "c"]


def test_unroutable_raises():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("island")
    pkt = Packet(src=("a", 1), dst=("island", 2), protocol="udp", payload=b"")
    with pytest.raises(UnroutableError):
        net.send(pkt)


def test_multi_hop_forwarding_delivers_end_to_end():
    env = Environment()
    net = Network(env)
    for name in "abc":
        net.add_host(name)
    net.connect("a", "b", bandwidth_bps=1e9, latency_s=0.1)
    net.connect("b", "c", bandwidth_bps=1e9, latency_s=0.1)
    sock_c = net.hosts["c"].udp_socket(port=9)
    sock_a = net.hosts["a"].udp_socket()
    received = []

    def receiver(env):
        payload, src = yield sock_c.recv()
        received.append((payload, env.now))

    def sender(env):
        sock_a.sendto(b"hop", ("c", 9))
        yield env.timeout(0)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert received[0][0] == b"hop"
    assert received[0][1] == pytest.approx(0.2, abs=0.01)


def test_loopback_delivery():
    env = Environment()
    net = Network(env)
    net.add_host("solo")
    sock_in = net.hosts["solo"].udp_socket(port=5)
    sock_out = net.hosts["solo"].udp_socket()
    got = []

    def receiver(env):
        payload, src = yield sock_in.recv()
        got.append((payload, env.now))

    def sender(env):
        sock_out.sendto(b"self", ("solo", 5))
        yield env.timeout(0)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert got[0][0] == b"self"
    assert got[0][1] < 0.001


def test_loopback_datagram_costs_one_kernel_step():
    """A loopback datagram is one timer event: no delivery process, and
    the socket buffers it without a put event of its own."""
    env = Environment()
    net = Network(env)
    net.add_host("solo")
    sock_in = net.hosts["solo"].udp_socket(port=5)
    net.hosts["solo"].udp_socket().sendto(b"self", ("solo", 5))
    steps = 0
    while env.peek() != float("inf"):
        env.step()
        steps += 1
    assert steps == 1
    assert sock_in.pending == 1
    assert env.now == pytest.approx(50e-6)


def test_total_link_bytes_counted():
    env, net = make_pair()
    sock_b = net.hosts["b"].udp_socket(port=7)
    sock_a = net.hosts["a"].udp_socket()

    def sender(env):
        sock_a.sendto(b"x" * 100, ("b", 7))
        yield env.timeout(0)

    env.process(sender(env))
    env.run()
    assert net.total_link_bytes() == 128  # 100 + 28 header


def test_device_radio_accounting_via_network():
    from repro.device import A8M3, Device

    env = Environment()
    net = Network(env)
    dev_a = Device(env, A8M3, name="edge")
    net.add_host("a", device=dev_a)
    net.add_host("b")
    net.connect("a", "b", bandwidth_bps=1e9, latency_s=0.001)
    net.hosts["b"].udp_socket(port=7)
    sock_a = net.hosts["a"].udp_socket()

    def sender(env):
        sock_a.sendto(b"y" * 72, ("b", 7))
        yield env.timeout(0)

    env.process(sender(env))
    env.run()
    assert dev_a.radio.tx.total == 100
    assert dev_a.host is net.hosts["a"]
