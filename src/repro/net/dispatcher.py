"""Front-end UDP dispatcher: one public endpoint fanning out to N shards.

A horizontally sharded server still has to present a single address to
its clients (devices configure *one* broker endpoint).  The dispatcher
owns that public UDP port and forwards every arriving datagram to the
backend shard that owns its sender.  It is a socket callback, not a
process.  Forwarding is *bundled*: the datagram that wakes it takes a
batch off the socket, and it hands each destination shard
one bundle, charging a calibrated fixed cost per bundle (queue push +
shard wakeup) plus a marginal cost per datagram (epoll-return +
header-peek) — the work a real SO_REUSEPORT-style front process pays,
an order of magnitude cheaper than full protocol servicing, and
amortized so the serial front plane stops being the Amdahl bound.

Shards receive through :class:`VirtualSocket` facades and *send through
the dispatcher's front socket*, so every reply originates from the
public endpoint: on the wire, the sharded plane is indistinguishable
from one big server.  The dispatcher forwards a bundle mid-step, so a
shard's callback always runs on a zero-delay timer, never in place.

Sticky routing: the shard choice is pinned per source endpoint on first
contact.  The ``classify`` callback (owned by the protocol layer, which
knows how to peek into its own packets) is consulted on every datagram
with the current pin and may re-pin — e.g. when a client re-identifies
itself with a different client id; ``on_repin`` lets the owner purge
state the old shard held for that endpoint.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..simkernel import Mailbox
from .packet import Endpoint

__all__ = ["UdpShardDispatcher", "VirtualSocket"]

#: classify(payload, source, current_pin) -> shard index
Classifier = Callable[[bytes, Endpoint, Optional[int]], int]


class VirtualSocket(Mailbox):
    """Socket facade for one backend shard behind a dispatcher.

    Receives whatever the dispatcher forwards to this shard; sends go out
    through the dispatcher's front socket so replies carry the public
    endpoint as their source.  Like a :class:`~repro.net.udp.UdpSocket`
    it is a :class:`~repro.simkernel.Mailbox` of ``(payload, source)``
    datagrams with a ``sendto``.
    """

    def __init__(self, dispatcher: "UdpShardDispatcher", index: int):
        super().__init__(dispatcher.env)
        self._dispatcher = dispatcher
        self.index = index

    @property
    def host(self):
        return self._dispatcher.host

    @property
    def port(self) -> int:
        return self._dispatcher.port

    def sendto(self, payload: bytes, dest: Endpoint):
        """Send through the shared front socket (public source endpoint)."""
        if self.closed:
            raise RuntimeError("socket is closed")
        return self._dispatcher.sock.sendto(payload, dest)

    def __repr__(self) -> str:
        return (
            f"<VirtualSocket shard={self.index} of "
            f"{self.host.name}:{self.port} pending={self.pending}>"
        )


class UdpShardDispatcher:
    """Owns the public UDP port and routes datagrams to shard sockets."""

    def __init__(
        self,
        host,
        port: int,
        shards: int,
        classify: Classifier,
        dispatch_fixed_s: float = 0.0,
        dispatch_per_datagram_s: float = 0.0,
        max_batch: int = 64,
        on_repin: Optional[Callable[[Endpoint, int, int], None]] = None,
    ):
        if shards <= 0:
            raise ValueError("dispatcher needs at least one shard")
        self.host = host
        self.env = host.env
        self.port = port
        self.classify = classify
        self.dispatch_fixed_s = dispatch_fixed_s
        self.dispatch_per_datagram_s = dispatch_per_datagram_s
        self.max_batch = max(1, max_batch)
        self.on_repin = on_repin
        self.sock = host.udp_socket(port)
        self.sockets: List[VirtualSocket] = [
            VirtualSocket(self, i) for i in range(shards)
        ]
        #: sticky source-endpoint -> shard-index routing decisions
        self.pins: Dict[Endpoint, int] = {}
        metrics = self.env.metrics
        self.dispatched = metrics.counter("dispatcher", "dispatched", host=host.name, port=port)
        self.bundles = metrics.counter("dispatcher", "bundles", host=host.name, port=port)
        self.sock.on_item(self._on_datagram)

    def _on_datagram(self, datagram: Tuple[bytes, Endpoint]) -> None:
        # Per wakeup: drain a batch off the socket, classify it in arrival
        # order (pins may change mid-batch), then forward one *bundle* per
        # destination shard.  The fixed dispatch cost is paid per bundle,
        # not per datagram, so fan-in from many devices to few shards
        # amortizes to ``K * fixed + N * per_datagram``.
        batch = [datagram]
        if self.max_batch > 1:
            batch.extend(self.sock.drain(self.max_batch - 1))
        bundles: Dict[int, List] = {}
        for datagram in batch:
            payload, source = datagram
            current = self.pins.get(source)
            index = self.classify(payload, source, current)
            if index != current:
                if current is not None and self.on_repin is not None:
                    self.on_repin(source, current, index)
                self.pins[source] = index
            bundles.setdefault(index, []).append(datagram)
        cost = (
            self.dispatch_fixed_s * len(bundles)
            + self.dispatch_per_datagram_s * len(batch)
        )
        if cost > 0:
            self.env.call_later(cost, self._forward, bundles)
        else:
            self._forward(bundles)

    def _forward(self, bundles: Dict[int, List]) -> None:
        for index, bundle in bundles.items():
            self.bundles.record()
            shard_socket = self.sockets[index]
            for datagram in bundle:
                self.dispatched.record()
                shard_socket.put_nowait(datagram)
        self.sock.on_item(self._on_datagram)

    @property
    def datagrams_per_bundle(self) -> float:
        """Measured amortization: datagrams forwarded per shard bundle."""
        if self.bundles.count == 0:
            return 0.0
        return self.dispatched.count / self.bundles.count

    def unpin(self, source: Endpoint) -> None:
        """Forget the sticky routing decision for ``source``."""
        self.pins.pop(source, None)

    def invalidate_shard(self, index: int) -> List[Endpoint]:
        """Drop every pin targeting shard ``index`` and close its socket.

        Failover path: once a shard is dead, its pins are lies — traffic
        from those endpoints must reclassify (CONNECTs by client id on the
        shrunk ring, the rest by source hash) instead of being forwarded
        into a void.  Returns the endpoints that were unpinned so the
        caller can account for the displaced sessions.
        """
        stale = [source for source, pin in self.pins.items() if pin == index]
        for source in stale:
            del self.pins[source]
        self.sockets[index].close()
        return stale

    def __repr__(self) -> str:
        return (
            f"<UdpShardDispatcher {self.host.name}:{self.port} "
            f"shards={len(self.sockets)} pins={len(self.pins)}>"
        )
