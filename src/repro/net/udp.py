"""UDP datagram sockets over the simulated network.

Faithful to the properties the paper's design exploits: ``sendto`` never
blocks on the network (fire-and-forget — the reason ProvLight's publish
path stays off the workflow's critical path), datagrams may be lost or
reordered, and there is no connection state.

Receiving is event-driven, like an epoll server: a consumer registers a
one-shot callback with :meth:`DatagramReceiver.on_datagram` and
re-registers after handling each datagram, so no process waits on the
socket.  A datagram arrives inside the link's (or loopback's)
propagation timer, as that timer's last action, so the callback runs in
place when it would be the very next kernel step and on a zero-delay
timer otherwise
(:meth:`~repro.simkernel.Environment.zero_delay_is_next`).  The event
form :meth:`DatagramReceiver.recv` shares the same buffer and waiter
slot, for processes that want to ``yield`` a datagram.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..simkernel import Event
from .packet import Endpoint, Packet, UDP_HEADER_BYTES

__all__ = ["DatagramReceiver", "UdpSocket"]

#: on_datagram callback: fn(payload, source)
DatagramHandler = Callable[[bytes, Endpoint], None]


class DatagramReceiver:
    """Receive side of a datagram socket: one FIFO buffer of
    ``(payload, source)`` datagrams and one waiter slot.

    The waiter is a callback registered with :meth:`on_datagram` or the
    event of a :meth:`recv`.  A datagram goes to the waiter if there is
    one and is buffered otherwise; a waiter registered on a non-empty
    buffer takes the oldest datagram on a zero-delay wake.  After
    :meth:`close` no callback runs and buffered datagrams are dropped.
    """

    def __init__(self, env):
        self.env = env
        self._buffer: deque = deque()
        self._waiter = None
        self.closed = False

    def on_datagram(self, fn: DatagramHandler) -> None:
        """Call ``fn(payload, source)`` once, for the next datagram.

        The callback form of :meth:`recv`: a consumer re-registers after
        handling each datagram.  A datagram already buffered is handed
        over on a zero-delay timer, where a :meth:`recv` on a non-empty
        buffer schedules its wake.
        """
        if self.closed or self._waiter is not None:
            self._refuse_receiver()
        if self._buffer:
            self.env.call_later(0.0, self._wake, fn, self._buffer.popleft())
        else:
            self._waiter = fn

    def recv(self) -> Event:
        """Event yielding ``(payload, source)`` for one datagram."""
        if self.closed or self._waiter is not None:
            self._refuse_receiver()
        event = Event(self.env)
        if self._buffer:
            event.succeed(self._buffer.popleft())
        else:
            self._waiter = event
        return event

    def recv_pending(self, limit: Optional[int] = None) -> list:
        """Datagrams already buffered, as ``[(payload, source), ...]``.

        Non-blocking: returns at most ``limit`` entries (all when None),
        possibly none.  Lets a server drain every datagram that queued
        while it was servicing the previous one — one wakeup, one batch.
        """
        if self.closed:
            raise RuntimeError("socket is closed")
        buffer = self._buffer
        if not buffer:
            return []
        if limit is None or limit >= len(buffer):
            drained = list(buffer)
            buffer.clear()
            return drained
        return [buffer.popleft() for _ in range(limit)]

    @property
    def pending(self) -> int:
        """Datagrams waiting in the receive buffer."""
        return len(self._buffer)

    def _refuse_receiver(self) -> None:
        if self.closed:
            raise RuntimeError("socket is closed")
        raise RuntimeError("socket already has a waiting receiver")

    def _push(self, datagram: tuple, tail: bool) -> None:
        """Hand ``datagram`` to the waiter, or buffer it.

        ``tail`` says the caller is in tail position (see
        :meth:`~repro.simkernel.Environment.zero_delay_is_next`): the
        callback then runs in place when nothing else is due now.  A
        delivery with more work after it in the same step passes False
        and always defers the callback to a zero-delay timer.
        """
        waiter = self._waiter
        if waiter is None:
            self._buffer.append(datagram)
            return
        self._waiter = None
        if isinstance(waiter, Event):
            waiter.succeed(datagram)
        elif tail and self.env.zero_delay_is_next():
            waiter(*datagram)
        else:
            self.env.call_later(0.0, self._wake, waiter, datagram)

    def _wake(self, fn: DatagramHandler, datagram: tuple) -> None:
        if not self.closed:
            fn(*datagram)

    def close(self) -> None:
        """Stop receiving: drop the waiter and every buffered datagram."""
        self.closed = True
        self._waiter = None
        self._buffer.clear()


class UdpSocket(DatagramReceiver):
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
        packet = Packet(
            src=(self.host.name, self.port),
            dst=dest,
            protocol="udp",
            payload=bytes(payload),
            header_bytes=UDP_HEADER_BYTES,
        )
        self.host.network.send(packet)
        return packet

    # -- receiving -----------------------------------------------------------
    def _deliver(self, packet: Packet) -> None:
        # called by Host.deliver as the last action of a propagation
        # timer, so the consumer may run in place
        if not self.closed:
            self._push((packet.payload, packet.src), True)

    def close(self) -> None:
        """Unbind the socket; further sends/recvs raise."""
        if not self.closed:
            super().close()
            self.host._unbind_udp(self.port)

    def __repr__(self) -> str:
        return f"<UdpSocket {self.host.name}:{self.port}>"
