"""Packet model shared by every protocol in the simulated network.

Packets are modelled at the IP level: ``header_bytes`` covers the
network+transport headers (28 B for UDP/IP, 40 B for TCP/IP), and
``payload`` is the real application bytes — protocols build *actual* byte
strings, so wire sizes reported by the harness come from real encoders,
not estimates.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["Endpoint", "Packet", "UDP_HEADER_BYTES", "TCP_HEADER_BYTES"]

#: IPv4 (20) + UDP (8) headers.
UDP_HEADER_BYTES = 28
#: IPv4 (20) + TCP (20) headers (options ignored).
TCP_HEADER_BYTES = 40

#: (host name, port) pair addressing a socket.
Endpoint = Tuple[str, int]


class Packet:
    """One network-layer datagram/segment.

    ``size`` (total on-wire bytes) is fixed when the packet is built, so
    ``payload`` and ``header_bytes`` must not change afterwards.
    """

    __slots__ = ("src", "dst", "protocol", "payload", "header_bytes", "meta", "size")

    def __init__(
        self,
        src: Endpoint,
        dst: Endpoint,
        protocol: str,  # "udp" | "tcp"
        payload: bytes = b"",
        header_bytes: int = UDP_HEADER_BYTES,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.header_bytes = header_bytes
        #: transport metadata (TCP flags/seq/ack); None on a UDP datagram
        self.meta = meta
        self.size = header_bytes + len(payload)

    def __repr__(self) -> str:
        flags = self.meta.get("flags", "") if self.meta else ""
        return (
            f"<Packet {self.protocol}{('[' + flags + ']') if flags else ''} "
            f"{self.src[0]}:{self.src[1]}->{self.dst[0]}:{self.dst[1]} {self.size}B>"
        )
