"""TCP over the simulated network.

Implements the pieces of TCP whose costs the paper's analysis hinges on:

* three-way handshake (connection setup latency; HTTP keep-alive exists
  precisely to amortize it);
* MSS segmentation and a fixed-size sliding window with cumulative ACKs —
  every data segment causes a 40 B ACK on the (possibly constrained)
  reverse path;
* timeout-based retransmission with an adaptive RTO, so the reliability
  contract survives lossy links (failure-injection tests exercise this);
* FIN-based half-close: ``recv`` returns ``b""`` at end-of-stream.

Congestion control is deliberately out of scope: the experiments are
either latency-bound (1 Gbit) or plainly bandwidth-bound (25 Kbit), and a
fixed 64 KiB window reproduces both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..simkernel import Environment, Store
from .packet import Endpoint, Packet, TCP_HEADER_BYTES

__all__ = ["TcpConnection", "TcpListener", "ConnectionRefused", "ConnectionReset"]

MSS = 1460
DEFAULT_WINDOW = 65535
MAX_RETRIES = 12


class ConnectionRefused(ConnectionError):
    """No listener answered at the destination."""


class ConnectionReset(ConnectionError):
    """The connection failed (reset or retransmission limit exceeded)."""


@dataclass
class _Segment:
    """Sender-side bookkeeping for one in-flight segment."""

    payload: bytes
    is_fin: bool
    sent_at: float
    retries: int

    @property
    def length(self) -> int:
        return 1 if self.is_fin else len(self.payload)


class TcpListener:
    """Passive socket accepting incoming connections on one port."""

    def __init__(self, host: "Host", port: int):  # noqa: F821
        self.host = host
        self.port = port
        self._backlog: Store = Store(host.env)
        self.closed = False

    def accept(self):
        """Event yielding the next established :class:`TcpConnection`."""
        if self.closed:
            raise RuntimeError("listener is closed")
        return self._backlog.get()

    def _on_syn(self, packet: Packet) -> None:
        conn = TcpConnection(
            host=self.host,
            local_port=self.port,
            remote=packet.src,
            initiator=False,
        )
        self.host._register_tcp(conn)
        conn._on_packet(packet)
        conn._established.callbacks.append(
            lambda ev: self._backlog.put_nowait(conn) if ev._ok else None
        )

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.host._unbind_tcp_listener(self.port)

    def __repr__(self) -> str:
        return f"<TcpListener {self.host.name}:{self.port}>"


class TcpConnection:
    """One endpoint of an established (or connecting) TCP connection."""

    def __init__(
        self,
        host: "Host",  # noqa: F821
        local_port: int,
        remote: Endpoint,
        initiator: bool,
        window: int = DEFAULT_WINDOW,
    ):
        self.host = host
        self.env: Environment = host.env
        self.local_port = local_port
        self.remote = remote
        self.initiator = initiator
        self.window = window

        self.state = "SYN_SENT" if initiator else "LISTEN"
        self._established = self.env.event()
        self._established.defused = True  # refusal is reported via connect()

        # -- send side
        self._send_buffer = bytearray()
        self._next_seq = 0
        self._last_acked = 0
        self._unacked: Dict[int, _Segment] = {}
        self._send_wakeup = self.env.event()
        self._fin_seq: Optional[int] = None
        self._closing = False

        # -- receive side
        self._expected_seq = 0
        self._ooo: Dict[int, Tuple[bytes, bool]] = {}  # seq -> (payload, is_fin)
        self._recv_buffer = bytearray()
        self._recv_waiters: List = []  # (event, max_bytes)
        self._eof = False

        # -- RTO estimation (RFC 6298 style: one timer per connection)
        self._srtt: Optional[float] = None
        self._rto = 1.0
        self._rtx_backoff = 0
        self._rtx_wakeup = self.env.event()

        self.env.process(
            self._send_pump(), name=f"tcp-pump-{host.name}:{local_port}"
        )
        self.env.process(
            self._retransmit_loop(), name=f"tcp-rtx-{host.name}:{local_port}"
        )

    # ------------------------------------------------------------------ API
    @property
    def established(self) -> bool:
        return self.state == "ESTABLISHED"

    @property
    def closed(self) -> bool:
        return self.state == "CLOSED"

    def send(self, data: bytes):
        """Queue ``data`` for transmission.

        The returned event triggers immediately (send buffering is
        unbounded, like a kernel with a large socket buffer); delivery
        timing is governed by the window/ACK machinery.
        """
        if self.state == "CLOSED":
            raise ConnectionReset("send on closed connection")
        if self._closing:
            raise RuntimeError("send after close()")
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("TCP payload must be bytes")
        self._send_buffer.extend(data)
        self._wake_sender()
        done = self.env.event()
        done.succeed(len(data))
        return done

    def recv(self, max_bytes: Optional[int] = None):
        """Event yielding available bytes (up to ``max_bytes``).

        Blocks while the stream is empty; yields ``b""`` once the peer
        has closed and the buffer is drained.
        """
        event = self.env.event()
        self._recv_waiters.append((event, max_bytes))
        self._satisfy_receivers()
        return event

    def close(self) -> None:
        """Half-close: flush pending data, then send FIN."""
        if self._closing or self.state == "CLOSED":
            return
        self._closing = True
        self._wake_sender()

    def abort(self) -> None:
        """Hard teardown without FIN (models a reset)."""
        self._teardown(ConnectionReset("connection aborted"))

    # ------------------------------------------------------------- handshake
    def _start_connect(self) -> None:
        """Send the initial SYN (client side)."""
        self._transmit(flags="SYN", seq=0)
        self.env.process(self._handshake_timer(0), name="tcp-handshake-timer")

    def _handshake_timer(self, attempt: int):
        yield self.env.timeout(self._rto * (2 ** attempt))
        if self.state == "SYN_SENT":
            if attempt >= 4:
                self.state = "CLOSED"
                self._established.fail(
                    ConnectionRefused(f"connect to {self.remote} timed out")
                )
            else:
                self._transmit(flags="SYN", seq=0)
                self.env.process(
                    self._handshake_timer(attempt + 1), name="tcp-handshake-timer"
                )

    # ------------------------------------------------------------ packet I/O
    def _transmit(
        self,
        flags: str = "",
        seq: int = 0,
        ack: Optional[int] = None,
        payload: bytes = b"",
    ) -> None:
        packet = Packet(
            src=(self.host.name, self.local_port),
            dst=self.remote,
            protocol="tcp",
            payload=payload,
            header_bytes=TCP_HEADER_BYTES,
            meta={"flags": flags, "seq": seq, "ack": ack},
        )
        self.host.network.send(packet)

    def _on_packet(self, packet: Packet) -> None:
        flags = packet.meta.get("flags", "")
        # --- reset handling -------------------------------------------------
        if flags == "RST":
            if self.state == "SYN_SENT":
                self._teardown(ConnectionRefused("connection refused (RST)"))
            elif self.state != "CLOSED":
                self._teardown(ConnectionReset("connection reset by peer"))
            return
        if self.state == "CLOSED":
            # data to a dead connection: tell the peer (lets blocked HTTP
            # clients detect a crashed server instead of hanging)
            if packet.payload or "FIN" in flags:
                self._transmit(flags="RST")
            return
        # --- handshake ----------------------------------------------------
        if "SYN" in flags and "ACK" not in flags:
            # server side: reply SYN-ACK (idempotent for retransmitted SYNs)
            if self.state == "LISTEN":
                self.state = "SYN_RCVD"
            self._transmit(flags="SYN-ACK", seq=0, ack=0)
            return
        if flags == "SYN-ACK":
            if self.state == "SYN_SENT":
                self.state = "ESTABLISHED"
                self._transmit(flags="ACK", ack=0)
                self._established.succeed(self)
                self._wake_sender()
            else:
                self._transmit(flags="ACK", ack=0)  # duplicate: re-ack
            return
        if (
            flags == "ACK"
            and self.state == "SYN_RCVD"
            and packet.meta.get("ack") == 0
            and not packet.payload
        ):
            self.state = "ESTABLISHED"
            self._established.succeed(self)
            return
        if self.state == "SYN_RCVD" and (packet.payload or "FIN" in flags):
            # The handshake ACK was lost but data arrived: implicitly
            # established (RFC 793 allows data to complete the handshake).
            self.state = "ESTABLISHED"
            self._established.succeed(self)

        # --- data & stream control -----------------------------------------
        if packet.payload or "FIN" in flags:
            self._on_data(packet)
        ack = packet.meta.get("ack")
        if ack is not None and "SYN" not in flags:
            self._on_ack(ack)

    def _on_data(self, packet: Packet) -> None:
        seq = packet.meta.get("seq", 0)
        payload = packet.payload
        fin = "FIN" in packet.meta.get("flags", "")
        if seq == self._expected_seq:
            if payload:
                self._recv_buffer.extend(payload)
                self._expected_seq += len(payload)
            if fin:
                self._eof = True
                self._expected_seq += 1
            # drain out-of-order segments that became contiguous
            while self._expected_seq in self._ooo:
                data, ooo_fin = self._ooo.pop(self._expected_seq)
                self._recv_buffer.extend(data)
                self._expected_seq += len(data)
                if ooo_fin:
                    self._eof = True
                    self._expected_seq += 1
        elif seq > self._expected_seq:
            self._ooo.setdefault(seq, (payload, fin))
        # duplicates (seq < expected) fall through to a re-ACK
        self._transmit(flags="ACK", ack=self._expected_seq)
        self._satisfy_receivers()

    def _on_ack(self, ack: int) -> None:
        if ack <= self._last_acked:
            return
        now = self.env.now
        for seq in sorted(self._unacked):
            segment = self._unacked[seq]
            if seq + segment.length <= ack:
                del self._unacked[seq]
                if segment.retries == 0:  # Karn's rule
                    self._rtt_sample(now - segment.sent_at)
        self._last_acked = ack
        if self._fin_seq is not None and ack >= self._fin_seq + 1:
            self.state = "CLOSED"
        self._wake_sender()

    def _rtt_sample(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
        else:
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(max(0.2, 2.5 * self._srtt), 10.0)

    # ------------------------------------------------------------- send pump
    def _wake_sender(self) -> None:
        if not self._send_wakeup.triggered:
            self._send_wakeup.succeed()

    def _wait_wakeup(self):
        if self._send_wakeup.triggered:
            self._send_wakeup = self.env.event()
        return self._send_wakeup

    def _send_pump(self):
        env = self.env
        while True:
            if self.state == "CLOSED":
                return
            if self.state != "ESTABLISHED":
                yield self._wait_wakeup()
                continue
            in_flight = self._next_seq - self._last_acked
            if self._send_buffer and in_flight < self.window:
                chunk_len = min(MSS, len(self._send_buffer), self.window - in_flight)
                chunk = bytes(self._send_buffer[:chunk_len])
                del self._send_buffer[:chunk_len]
                seq = self._next_seq
                self._next_seq += chunk_len
                self._unacked[seq] = _Segment(chunk, False, env.now, 0)
                self._transmit(seq=seq, ack=self._expected_seq, payload=chunk)
                self._wake_rtx()
            elif self._closing and not self._send_buffer and self._fin_seq is None:
                self._fin_seq = self._next_seq
                self._unacked[self._fin_seq] = _Segment(b"", True, env.now, 0)
                self._next_seq += 1
                self._transmit(flags="FIN", seq=self._fin_seq, ack=self._expected_seq)
                self._wake_rtx()
                yield self._wait_wakeup()
            else:
                yield self._wait_wakeup()

    def _wake_rtx(self) -> None:
        if not self._rtx_wakeup.triggered:
            self._rtx_wakeup.succeed()

    def _retransmit_loop(self):
        """One retransmission timer per connection (RFC 6298).

        The timer covers the *oldest* unacked segment and restarts on any
        cumulative-ACK progress, so queueing delay behind a slow link does
        not trigger spurious retransmission storms for segments that are
        still waiting their turn at the bottleneck.
        """
        env = self.env
        while self.state != "CLOSED":
            if not self._unacked:
                if self._rtx_wakeup.triggered:
                    self._rtx_wakeup = env.event()
                yield self._rtx_wakeup
                continue
            acked_snapshot = self._last_acked
            yield env.timeout(self._rto * (2 ** min(self._rtx_backoff, 6)))
            if self.state == "CLOSED" or not self._unacked:
                continue
            if self._last_acked != acked_snapshot:
                self._rtx_backoff = 0  # forward progress: restart the timer
                continue
            oldest = min(self._unacked)
            segment = self._unacked[oldest]
            if segment.retries >= MAX_RETRIES:
                self._teardown(ConnectionReset(f"retransmission limit for seq {oldest}"))
                return
            segment.retries += 1
            segment.sent_at = env.now
            self._rtx_backoff += 1
            if segment.is_fin:
                self._transmit(flags="FIN", seq=oldest, ack=self._expected_seq)
            else:
                self._transmit(seq=oldest, ack=self._expected_seq, payload=segment.payload)

    # ------------------------------------------------------------ teardown
    def _teardown(self, error: Exception) -> None:
        self.state = "CLOSED"
        self._eof = True
        self._satisfy_receivers()
        if not self._established.triggered:
            self._established.fail(error)
        self._wake_sender()

    # ----------------------------------------------------------- receivers
    def _satisfy_receivers(self) -> None:
        while self._recv_waiters:
            if self._recv_buffer:
                event, max_bytes = self._recv_waiters.pop(0)
                take = (
                    len(self._recv_buffer)
                    if max_bytes is None
                    else min(max_bytes, len(self._recv_buffer))
                )
                data = bytes(self._recv_buffer[:take])
                del self._recv_buffer[:take]
                event.succeed(data)
            elif self._eof:
                event, _ = self._recv_waiters.pop(0)
                event.succeed(b"")
            else:
                break

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.host.name}:{self.local_port}<->"
            f"{self.remote[0]}:{self.remote[1]} {self.state}>"
        )
