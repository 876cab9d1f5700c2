"""UDP datagram sockets over the simulated network.

Faithful to the properties the paper's design exploits: ``sendto`` never
blocks on the network (fire-and-forget — the reason ProvLight's publish
path stays off the workflow's critical path), datagrams may be lost or
reordered, and there is no connection state.

Receiving is event-driven, like an epoll server: a socket is a
:class:`~repro.simkernel.Mailbox` of ``(payload, source)`` datagrams.  A
consumer registers a one-shot callback with
:meth:`~repro.simkernel.Mailbox.on_item` and re-registers after handling
each datagram, so no process waits on the socket.  A datagram arrives
inside the link's (or loopback's) propagation timer, as that timer's
last action, so the callback runs in place when it would be the very
next kernel step and on a zero-delay timer otherwise
(:meth:`~repro.simkernel.Environment.zero_delay_is_next`).
"""

from __future__ import annotations

from ..simkernel import Mailbox
from .packet import Endpoint, Packet, UDP_HEADER_BYTES

__all__ = ["UdpSocket"]


class UdpSocket(Mailbox):
    """A bound UDP socket on one host."""

    def __init__(self, host: "Host", port: int):  # noqa: F821
        super().__init__(host.env)
        self.host = host
        self.port = port

    # -- sending ---------------------------------------------------------------
    def sendto(self, payload: bytes, dest: Endpoint) -> Packet:
        """Send a datagram; returns the packet (already on its way)."""
        if self.closed:
            raise RuntimeError("socket is closed")
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("UDP payload must be bytes")
        host = self.host
        packet = Packet((host.name, self.port), dest, "udp", bytes(payload), UDP_HEADER_BYTES)
        host.network.send(packet)
        return packet

    # -- receiving -----------------------------------------------------------
    def _deliver(self, packet: Packet) -> None:
        # called by Host.deliver as the last action of a propagation
        # timer, so the consumer may run in place
        self.put_nowait((packet.payload, packet.src), True)

    def close(self) -> None:
        """Unbind the socket; further sends and receives raise."""
        if not self.closed:
            super().close()
            self.host._unbind_udp(self.port)

    def __repr__(self) -> str:
        return f"<UdpSocket {self.host.name}:{self.port}>"
