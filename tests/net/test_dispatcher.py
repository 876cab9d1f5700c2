"""UdpShardDispatcher and its VirtualSocket shard facades."""

from repro.net import Network, UdpShardDispatcher
from repro.simkernel import Environment


def make_dispatcher(shards=2, **kw):
    """A dispatcher on ``cloud`` that routes each datagram to the shard
    named by its first byte, and a client socket on ``edge``."""
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    net.add_host("edge")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    dispatcher = UdpShardDispatcher(
        net.hosts["cloud"], 9000, shards,
        classify=lambda payload, source, pin: payload[0], **kw,
    )
    return env, dispatcher, net.hosts["edge"].udp_socket()


def test_shard_callbacks_receive_forwarded_bundles():
    env, dispatcher, client = make_dispatcher(dispatch_fixed_s=0.001)
    got = {0: [], 1: []}

    def listen(index):
        sock = dispatcher.sockets[index]

        def on_datagram(datagram):
            got[index].append((env.now, datagram[0]))
            sock.on_item(on_datagram)

        sock.on_item(on_datagram)

    listen(0)
    listen(1)
    for payload in (b"\x00a", b"\x01b", b"\x00c"):
        client.sendto(payload, ("cloud", 9000))
    env.run()
    assert [p for _, p in got[0]] == [b"\x00a", b"\x00c"]
    assert [p for _, p in got[1]] == [b"\x01b"]
    assert dispatcher.dispatched.count == 3
    assert all(t > 0.01 for t, _ in got[0] + got[1])  # after the link hop


def test_invalidated_shard_never_calls_its_callback_and_drops_its_buffer():
    env, dispatcher, client = make_dispatcher()
    shard = dispatcher.sockets[0]
    client.sendto(b"\x00buffered", ("cloud", 9000))
    env.run()
    assert shard.pending == 1
    got = []
    shard.on_item(lambda datagram: got.append(datagram[0]))  # wake pending
    dispatcher.invalidate_shard(0)
    assert shard.closed and shard.pending == 0
    client.sendto(b"\x00late", ("cloud", 9000))
    env.run()
    assert got == [] and shard.pending == 0
    assert dispatcher.dispatched.count == 2  # forwarded, then dropped by the shard
