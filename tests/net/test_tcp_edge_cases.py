"""Additional TCP behaviours: windows, reordering, RST, jitter."""

import pytest

from repro.net import ConnectionRefused, Network
from repro.net.tcp import DEFAULT_WINDOW, MSS, TcpConnection
from repro.simkernel import Environment
from ..waiting import next_connection


def make_net(latency=0.01, bandwidth=1e9, jitter=0.0, seed=7):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("client")
    net.add_host("server")
    net.connect("client", "server", bandwidth_bps=bandwidth, latency_s=latency,
                jitter_s=jitter)
    return env, net


def test_window_limits_inflight_bytes():
    env, net = make_net(latency=0.5)  # long RTT so the window binds
    listener = net.hosts["server"].tcp_listen(80)
    received = bytearray()
    payload = b"w" * (DEFAULT_WINDOW * 3)

    def server(env):
        conn = yield next_connection(listener)
        while len(received) < len(payload):
            data = yield conn.recv()
            received.extend(data)

    inflight_snapshot = {}

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(payload)
        yield env.timeout(0.6)  # first RTT not yet acked everything
        inflight_snapshot["bytes"] = conn._next_seq - conn._last_acked

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert bytes(received) == payload
    assert inflight_snapshot["bytes"] <= DEFAULT_WINDOW


def test_rst_to_closed_connection_resets_peer():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    state = {}

    def server(env):
        conn = yield next_connection(listener)
        yield conn.recv()
        conn.abort()  # hard close
        state["server_conn"] = conn

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"first")
        yield env.timeout(0.5)
        conn.send(b"second")  # hits a CLOSED peer -> RST back
        yield env.timeout(1.0)
        state["client_state"] = conn.state

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert state["client_state"] == "CLOSED"


def test_connect_refused_is_fast_with_rst():
    env, net = make_net(latency=0.01)
    timing = {}

    def client(env):
        t0 = env.now
        try:
            yield from net.hosts["client"].tcp_connect(("server", 9))
        except ConnectionRefused:
            timing["elapsed"] = env.now - t0

    env.process(client(env))
    env.run()
    # one RTT for SYN + RST, not the multi-second handshake timeout
    assert timing["elapsed"] < 0.1


def test_jitter_reorders_but_stream_stays_in_order():
    env, net = make_net(latency=0.02, jitter=0.015, seed=12)
    listener = net.hosts["server"].tcp_listen(80)
    received = bytearray()
    payload = bytes(range(256)) * 30  # several segments

    def server(env):
        conn = yield next_connection(listener)
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


def test_segments_use_mss():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    sizes = []
    original_send = net.send

    def spy(packet):
        if packet.protocol == "tcp" and packet.payload:
            sizes.append(len(packet.payload))
        original_send(packet)

    net.send = spy

    def server(env):
        conn = yield next_connection(listener)
        got = 0
        while got < 4000:
            data = yield conn.recv()
            got += len(data)

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"s" * 4000)

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert max(sizes) == MSS
    assert sum(sizes) >= 4000


def test_both_sides_can_close():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    states = {}

    def server(env):
        conn = yield next_connection(listener)
        data = yield conn.recv()
        conn.send(b"reply:" + data)
        conn.close()
        yield env.timeout(2.0)
        states["server"] = conn.state

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        conn.send(b"req")
        reply = yield conn.recv()
        assert reply == b"reply:req"
        conn.close()
        eof = yield conn.recv()
        yield env.timeout(2.0)
        states["client"] = conn.state

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert states["server"] == "CLOSED"
    assert states["client"] == "CLOSED"


def test_abort_wakes_blocked_receiver():
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    got = {}

    def server(env):
        conn = yield next_connection(listener)
        data = yield conn.recv()  # blocked until abort
        got["data"] = data

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        yield env.timeout(0.2)
        conn.abort()
        # server side learns via its own abort below

    def chaos(env):
        yield env.timeout(0.5)
        for conn in list(net.hosts["server"]._tcp_conns.values()):
            conn.abort()

    env.process(server(env))
    env.process(client(env))
    env.process(chaos(env))
    env.run()
    assert got["data"] == b""  # recv returned EOF instead of hanging
