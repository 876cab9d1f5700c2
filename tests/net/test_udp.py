"""Tests for UDP sockets."""

import pytest

from repro.net import Network, Packet, PortInUse
from repro.simkernel import Environment
from ..waiting import next_item


def make_net(latency=0.01, **kw):
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", bandwidth_bps=1e9, latency_s=latency, **kw)
    return env, net


def test_send_receive_roundtrip():
    env, net = make_net()
    server = net.hosts["b"].udp_socket(port=100)
    client = net.hosts["a"].udp_socket()
    log = []

    def rx(env):
        payload, src = yield next_item(server)
        log.append((payload, src))

    def tx(env):
        client.sendto(b"ping", ("b", 100))
        yield env.timeout(0)

    env.process(rx(env))
    env.process(tx(env))
    env.run()
    assert log == [(b"ping", ("a", client.port))]


def test_sendto_does_not_block_caller():
    env, net = make_net(latency=5.0)
    net.hosts["b"].udp_socket(port=100)
    client = net.hosts["a"].udp_socket()
    times = []

    def tx(env):
        client.sendto(b"x" * 1000, ("b", 100))
        times.append(env.now)
        yield env.timeout(0)

    env.process(tx(env))
    env.run()
    assert times == [0.0]  # fire-and-forget


def test_datagram_to_unbound_port_is_dropped():
    env, net = make_net()
    client = net.hosts["a"].udp_socket()

    def tx(env):
        client.sendto(b"void", ("b", 12345))
        yield env.timeout(0)

    env.process(tx(env))
    env.run()  # nothing raised, packet vanished


def test_lossy_link_loses_datagrams():
    env, net = make_net(latency=0.0, loss=0.5)
    server = net.hosts["b"].udp_socket(port=100)
    client = net.hosts["a"].udp_socket()

    def tx(env):
        for _ in range(100):
            client.sendto(b"d", ("b", 100))
        yield env.timeout(0)

    env.process(tx(env))
    env.run()
    assert 20 < server.pending < 80


def test_multiple_sockets_dispatch_by_port():
    env, net = make_net()
    s1 = net.hosts["b"].udp_socket(port=1)
    s2 = net.hosts["b"].udp_socket(port=2)
    client = net.hosts["a"].udp_socket()

    def tx(env):
        client.sendto(b"one", ("b", 1))
        client.sendto(b"two", ("b", 2))
        yield env.timeout(0)

    env.process(tx(env))
    env.run()
    assert s1.items_snapshot() if hasattr(s1, "items_snapshot") else True
    assert s1.pending == 1
    assert s2.pending == 1


def test_port_conflict_rejected():
    env, net = make_net()
    net.hosts["b"].udp_socket(port=9)
    with pytest.raises(PortInUse):
        net.hosts["b"].udp_socket(port=9)


def test_closed_socket_rejects_operations():
    env, net = make_net()
    sock = net.hosts["a"].udp_socket()
    sock.close()
    with pytest.raises(RuntimeError):
        sock.sendto(b"x", ("b", 1))
    with pytest.raises(RuntimeError):
        sock.on_item(lambda datagram: None)


def test_close_releases_port_for_rebinding():
    env, net = make_net()
    sock = net.hosts["b"].udp_socket(port=44)
    sock.close()
    sock2 = net.hosts["b"].udp_socket(port=44)
    assert sock2.port == 44


def test_payload_type_checked():
    env, net = make_net()
    sock = net.hosts["a"].udp_socket()
    with pytest.raises(TypeError):
        sock.sendto("not-bytes", ("b", 1))


def test_ephemeral_ports_are_unique():
    env, net = make_net()
    ports = {net.hosts["a"].udp_socket().port for _ in range(10)}
    assert len(ports) == 10


def test_callback_receives_each_datagram_once_per_registration():
    env, net = make_net()
    server = net.hosts["b"].udp_socket(port=100)
    client = net.hosts["a"].udp_socket()
    got = []

    def on_datagram(datagram):
        got.append((env.now, *datagram))
        server.on_item(on_datagram)

    server.on_item(on_datagram)
    client.sendto(b"one", ("b", 100))
    client.sendto(b"two", ("b", 100))
    env.run()
    assert [payload for _, payload, _ in got] == [b"one", b"two"]
    assert all(src == ("a", client.port) for _, _, src in got)
    assert server.pending == 0


def test_second_waiter_is_rejected():
    env, net = make_net()
    sock = net.hosts["b"].udp_socket(port=100)
    sock.on_item(lambda datagram: None)
    with pytest.raises(RuntimeError):
        sock.on_item(lambda datagram: None)


def test_closed_socket_never_calls_its_callback_and_drops_its_buffer():
    env, net = make_net()
    server = net.hosts["b"].udp_socket(port=100)
    client = net.hosts["a"].udp_socket()
    got = []
    client.sendto(b"one", ("b", 100))
    client.sendto(b"two", ("b", 100))
    env.run()
    assert server.pending == 2
    # a waiter on a non-empty buffer is woken by a zero-delay timer;
    # closing before it fires voids the wake and drops the rest
    server.on_item(lambda datagram: got.append(datagram[0]))
    server.close()
    assert server.pending == 0
    env.run()
    assert got == []


def test_close_unregisters_a_waiting_callback():
    env, net = make_net()
    server = net.hosts["b"].udp_socket(port=100)
    got = []
    server.on_item(lambda datagram: got.append(datagram[0]))
    server.close()
    with pytest.raises(RuntimeError):
        server.on_item(lambda datagram: None)
    # a datagram still reaching the socket object (the host has already
    # unbound the port, so only a stale reference can) is dropped
    late = Packet(src=("a", 1), dst=("b", 100), protocol="udp", payload=b"late")
    env.call_later(0.0, server._deliver, late)
    env.run()
    assert got == [] and server.pending == 0
