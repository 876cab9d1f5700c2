"""Host: a named network endpoint with UDP/TCP socket tables.

A host belongs to exactly one :class:`~repro.net.topology.Network` and may
be backed by a :class:`~repro.device.Device` whose radio/energy accounting
it feeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..simkernel import Environment
from .packet import Endpoint, Packet
from .udp import UdpSocket

if TYPE_CHECKING:
    from .tcp import TcpConnection, TcpListener

__all__ = ["Host", "PortInUse"]

EPHEMERAL_BASE = 49152


class PortInUse(OSError):
    """Binding to a port that already has a socket."""


class Host:
    """A machine attached to the simulated network."""

    def __init__(self, env: Environment, name: str, network, device=None):
        self.env = env
        self.name = name
        self.network = network
        self.device = device
        if device is not None:
            device.host = self
        self._udp_ports: Dict[int, UdpSocket] = {}
        self._tcp_listeners: Dict[int, TcpListener] = {}
        self._tcp_conns: Dict[Tuple[int, Endpoint], TcpConnection] = {}
        self._next_ephemeral = EPHEMERAL_BASE

    # -- port management ----------------------------------------------------
    def _alloc_port(self) -> int:
        while (
            self._next_ephemeral in self._udp_ports
            or self._next_ephemeral in self._tcp_listeners
        ):
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- UDP -------------------------------------------------------------------
    def udp_socket(self, port: Optional[int] = None) -> UdpSocket:
        """Bind a UDP socket (ephemeral port when ``port`` is None)."""
        if port is None:
            port = self._alloc_port()
        if port in self._udp_ports:
            raise PortInUse(f"{self.name}: UDP port {port} in use")
        sock = UdpSocket(self, port)
        self._udp_ports[port] = sock
        return sock

    def _unbind_udp(self, port: int) -> None:
        self._udp_ports.pop(port, None)

    # -- TCP (repro.net.tcp loads on a host's first TCP call) ----------------
    def tcp_listen(self, port: int) -> TcpListener:
        """Open a passive TCP socket on ``port``."""
        from .tcp import TcpListener

        if port in self._tcp_listeners:
            raise PortInUse(f"{self.name}: TCP port {port} in use")
        listener = TcpListener(self, port)
        self._tcp_listeners[port] = listener
        return listener

    def _unbind_tcp_listener(self, port: int) -> None:
        self._tcp_listeners.pop(port, None)

    def tcp_connect(self, dest: Endpoint):
        """Generator establishing a connection (use with ``yield from``).

        Returns the established :class:`TcpConnection`; raises
        :class:`~repro.net.tcp.ConnectionRefused` when nobody answers.
        """
        from .tcp import TcpConnection

        port = self._alloc_port()
        conn = TcpConnection(self, port, dest, initiator=True)
        self._register_tcp(conn)
        conn._start_connect()
        established = yield conn._established
        return established

    def _register_tcp(self, conn: TcpConnection) -> None:
        self._tcp_conns[(conn.local_port, conn.remote)] = conn

    # -- delivery (called by the network) ---------------------------------------
    def deliver(self, packet: Packet) -> None:
        """Dispatch an arriving packet to the right socket.

        Runs only as the last action of a link propagation or loopback
        timer, so a UDP socket may run its consumer in place
        (:meth:`~repro.simkernel.Environment.zero_delay_is_next`).
        """
        device = self.device
        if device is not None:
            device.radio.on_receive(packet.size)
        if packet.protocol == "udp":
            sock = self._udp_ports.get(packet.dst[1])
            if sock is not None:
                sock._deliver(packet)
            # no socket: datagram silently dropped (ICMP not modelled)
            return
        if packet.protocol == "tcp":
            key = (packet.dst[1], packet.src)
            conn = self._tcp_conns.get(key)
            if conn is not None:
                conn._on_packet(packet)
                return
            flags = packet.meta.get("flags", "")
            listener = self._tcp_listeners.get(packet.dst[1])
            if listener is not None and "SYN" in flags and "ACK" not in flags:
                listener._on_syn(packet)
                return
            if "RST" not in flags:
                # no listener / unknown connection: reset the sender
                self.network.send(
                    Packet(
                        src=packet.dst,
                        dst=packet.src,
                        protocol="tcp",
                        header_bytes=packet.header_bytes,
                        meta={"flags": "RST", "seq": 0, "ack": None},
                    )
                )
            return
        raise ValueError(f"unknown protocol {packet.protocol!r}")

    def __repr__(self) -> str:
        return f"<Host {self.name}>"
