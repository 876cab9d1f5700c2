"""Tests for the TCP model: handshake, streaming, loss recovery, close."""

import pytest

from repro.net import ConnectionRefused, Network
from repro.simkernel import Environment


def make_net(latency=0.01, bandwidth=1e9, **kw):
    env = Environment()
    net = Network(env, seed=7)
    net.add_host("client")
    net.add_host("server")
    net.connect("client", "server", bandwidth_bps=bandwidth, latency_s=latency, **kw)
    return env, net


def echo_server(env, net, port=80, chunks=1):
    """Accept one connection and echo everything it receives."""
    listener = net.hosts["server"].tcp_listen(port)

    def run(env):
        conn = yield listener.accept()
        while True:
            data = yield conn.recv()
            if not data:
                break
            conn.send(data)

    env.process(run(env))
    return listener


def test_connect_completes_after_handshake():
    env, net = make_net(latency=0.05)
    net.hosts["server"].tcp_listen(80)
    result = {}

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        result["time"] = env.now
        result["established"] = conn.established

    env.process(client(env))
    env.run()
    # SYN (0.05) + SYN-ACK (0.05) -> established at client after 1 RTT
    assert result["time"] == pytest.approx(0.1, rel=0.01)
    assert result["established"]


def test_connect_to_missing_listener_refused():
    env, net = make_net()
    failures = []

    def client(env):
        try:
            yield from net.hosts["client"].tcp_connect(("server", 81))
        except ConnectionRefused as exc:
            failures.append(str(exc))

    env.process(client(env))
    env.run()
    assert len(failures) == 1


def test_send_recv_roundtrip():
    env, net = make_net()
    echo_server(env, net)
    got = []

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"hello tcp")
        data = yield conn.recv()
        got.append(data)

    env.process(client(env))
    env.run()
    assert got == [b"hello tcp"]


def test_large_transfer_is_segmented_and_reassembled():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    received = bytearray()
    payload = bytes(range(256)) * 40  # 10240 bytes > 7 segments

    def server(env):
        conn = yield listener.accept()
        while len(received) < len(payload):
            data = yield conn.recv()
            received.extend(data)

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(payload)

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert bytes(received) == payload


def test_transfer_time_respects_bandwidth():
    # 25 Kbit/s link: 10 KB of payload + headers takes seconds, not ms
    env, net = make_net(latency=0.023, bandwidth=25e3)
    listener = net.hosts["server"].tcp_listen(80)
    done = {}
    payload = b"z" * 10_000

    def server(env):
        conn = yield listener.accept()
        got = 0
        while got < len(payload):
            data = yield conn.recv()
            got += len(data)
        done["t"] = env.now

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(payload)

    env.process(server(env))
    env.process(client(env))
    env.run()
    # >= payload bits / bandwidth = 3.2s; plus headers/acks/handshake
    assert done["t"] > 3.2
    assert done["t"] < 6.0


def test_loss_recovery_delivers_reliably():
    env, net = make_net(latency=0.005, loss=0.15)
    listener = net.hosts["server"].tcp_listen(80)
    received = bytearray()
    payload = b"R" * 20_000

    def server(env):
        conn = yield listener.accept()
        while len(received) < len(payload):
            data = yield conn.recv()
            received.extend(data)

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(payload)

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert bytes(received) == payload


def test_close_signals_eof_to_peer():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    log = []

    def server(env):
        conn = yield listener.accept()
        while True:
            data = yield conn.recv()
            if data == b"":
                log.append("eof")
                break
            log.append(data)

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"bye")
        conn.close()

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert log == [b"bye", "eof"]


def test_send_after_close_rejected():
    env, net = make_net()
    net.hosts["server"].tcp_listen(80)
    errors = []

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.close()
        try:
            conn.send(b"late")
        except RuntimeError as exc:
            errors.append(str(exc))

    env.process(client(env))
    env.run()
    assert len(errors) == 1


def test_bidirectional_streams_are_independent():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    got = {"server": b"", "client": b""}

    def server(env):
        conn = yield listener.accept()
        conn.send(b"from-server")
        data = yield conn.recv()
        got["server"] = data

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"from-client")
        data = yield conn.recv()
        got["client"] = data

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert got == {"server": b"from-client", "client": b"from-server"}


def test_recv_max_bytes_partial_read():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    reads = []

    def server(env):
        conn = yield listener.accept()
        first = yield conn.recv(4)
        reads.append(first)
        rest = yield conn.recv()
        reads.append(rest)

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"abcdefgh")

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert reads == [b"abcd", b"efgh"]


def test_two_connections_to_same_listener():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    seen = []

    def server(env):
        for _ in range(2):
            conn = yield listener.accept()
            env.process(handle(env, conn))

    def handle(env, conn):
        data = yield conn.recv()
        seen.append(data)

    def client(env, tag):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(tag)

    env.process(server(env))
    env.process(client(env, b"c1"))
    env.process(client(env, b"c2"))
    env.run()
    assert sorted(seen) == [b"c1", b"c2"]


def test_acks_consume_reverse_bandwidth():
    env, net = make_net(latency=0.0, bandwidth=1e6)
    listener = net.hosts["server"].tcp_listen(80)

    def server(env):
        conn = yield listener.accept()
        total = 0
        while total < 5000:
            data = yield conn.recv()
            total += len(data)

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"q" * 5000)

    env.process(server(env))
    env.process(client(env))
    env.run()
    reverse = net.link("server", "client")
    assert reverse.tx_bytes.total > 0  # SYN-ACK + data ACKs


def test_send_returns_none_and_schedules_no_event():
    env, net = make_net()
    echo_server(env, net)
    queued = {}

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        yield env.timeout(0.5)  # let the handshake's pump timer fire
        before = len(env._queue)
        queued["first"] = (conn.send(b"one"), len(env._queue) - before)
        before = len(env._queue)
        queued["second"] = (conn.send(b"two"), len(env._queue) - before)
        data = b""
        while len(data) < 6:
            data += yield conn.recv()
        queued["echo"] = data

    env.process(client(env))
    env.run()
    # the first send pushes the send pump's timer; nothing else is scheduled
    assert queued == {"first": (None, 1), "second": (None, 0), "echo": b"onetwo"}


def test_listener_hands_connections_to_one_waiter():
    """The backlog feeds one waiter at a time: an ``accept()`` event or
    a one-shot ``on_accept`` callback; connections that arrive with no
    waiter queue in order."""
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    accepted = []

    def on_accept(conn):
        accepted.append(("callback", env.now, conn.remote[1]))

    listener.on_accept(on_accept)
    with pytest.raises(RuntimeError, match="already has a waiter"):
        listener.accept()

    def client(env):
        for _ in range(3):
            yield from net.hosts["client"].tcp_connect(("server", 80))

    env.process(client(env))
    env.run()
    assert [kind for kind, *_ in accepted] == ["callback"]
    # the second and third connections queued in the backlog
    first = listener.accept()
    env.run()
    assert first.value.remote[1] == accepted[0][2] + 1
    listener.on_accept(on_accept)
    env.run()
    assert accepted[1][2] == accepted[0][2] + 2
    listener.close()
    with pytest.raises(RuntimeError, match="closed"):
        listener.accept()
