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

A reader waits with :meth:`TcpConnection.recv` (an event, for a
process) or :meth:`TcpConnection.on_recv` (a one-shot callback, for a
reader that runs no process, like the HTTP server's connections).  Both
wait in one FIFO queue; a callback waiter is fired by
``call_later(0.0, fn, data)`` exactly where an event waiter is
succeeded, so it runs in the heap slot that event would take.

The steady state has fast paths that reach the general path's outcome
with less work: ``_on_packet`` handles an ``ESTABLISHED`` segment with
flags ``""`` or ``"ACK"`` (data and/or a cumulative ACK) before the
handshake and reset branches, and ``_on_ack`` walks the unacked
segments in insertion order, which is sequence order (a segment is
inserted once, at the next sequence number), stopping at the first one
still unacked.

Congestion control is deliberately out of scope: the experiments are
either latency-bound (1 Gbit) or plainly bandwidth-bound (25 Kbit), and a
fixed 64 KiB window reproduces both regimes.

A connection runs no :class:`~repro.simkernel.Process`.  Its three
timers are :meth:`~repro.simkernel.Environment.call_later` heap entries:

* the *send pump* (:meth:`TcpConnection._pump`) puts send-buffer bytes
  on the wire while the window allows, then the FIN of a closing
  connection.  A wake sets ``_pump_due`` and pushes a zero-delay timer,
  so further wakes in the same instant cost nothing.  ``close()``, the
  SYN-ACK and a plain ``send()`` defer the pump, because more work may
  follow them in the same step.  An ACK and ``send(data, tail=True)``
  do not: ``_on_ack`` is the last action of ``_on_packet``, which is
  the last action of ``Host.deliver``, which ends a link or loopback
  timer.  In that tail position the pump runs in place when nothing
  else is due now
  (:meth:`~repro.simkernel.Environment.zero_delay_is_next`) and on the
  zero-delay timer otherwise.  A closed connection's pump is never woken.
* the *retransmission timer* (one RTO per connection, RFC 6298) covers
  the oldest unacked segment.  It is idle until a transmit arms it at
  ``rto * 2**min(backoff, 6)``.  When it fires it restarts on
  cumulative-ACK progress (backoff back to 0), goes idle when nothing is
  in flight, tears the connection down when the oldest segment has been
  retransmitted ``MAX_RETRIES`` times, and otherwise retransmits that
  segment and re-arms one backoff step longer.  An armed timer is never
  cancelled: after the connection closes it stays on the heap and does
  nothing when it fires (a dead RTO timer).
* the *handshake timer* resends the SYN with exponential backoff and
  refuses the connection after the fifth try.

Each timer fires at the instant the matching event of the process-based
model (a pump process and a retransmit-loop process per connection, a
process per handshake attempt) would.  A pump timer takes the heap slot
of the wakeup event it replaces.  An RTO or handshake timer is pushed
when it is armed, not when a woken process got round to it later in the
same instant, so its insertion id moves earlier; that reorders it only
against an entry with the identical float fire time pushed in between.
``tests/net/test_tcp_equivalence.py`` checks traces, shared-RNG draws
and link bytes against the process-based model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..simkernel import Environment, Event, Mailbox
from .packet import Endpoint, Packet, TCP_HEADER_BYTES

__all__ = ["TcpConnection", "TcpListener", "ConnectionRefused", "ConnectionReset"]

MSS = 1460
DEFAULT_WINDOW = 65535
MAX_RETRIES = 12


class ConnectionRefused(ConnectionError):
    """No listener answered at the destination."""


class ConnectionReset(ConnectionError):
    """The connection failed (reset or retransmission limit exceeded)."""


class _Segment:
    """Sender-side bookkeeping for one in-flight segment."""

    __slots__ = ("payload", "is_fin", "sent_at", "retries", "length")

    def __init__(self, payload: bytes, is_fin: bool, sent_at: float, retries: int):
        self.payload = payload
        self.is_fin = is_fin
        self.sent_at = sent_at
        self.retries = retries
        #: sequence space taken: the payload bytes, or 1 for a FIN
        self.length = 1 if is_fin else len(payload)


class TcpListener:
    """Passive socket accepting incoming connections on one port.

    Its backlog is a :class:`~repro.simkernel.Mailbox`: an established
    connection goes to the waiter if there is one and is queued
    otherwise.  The waiter is a one-shot callback registered with
    :meth:`on_accept`; a second waiter raises.
    """

    def __init__(self, host: "Host", port: int):  # noqa: F821
        self.host = host
        self.port = port
        self._backlog = Mailbox(host.env)

    def on_accept(self, fn: Callable[["TcpConnection"], None]) -> None:
        """Call ``fn(conn)`` once, for the next established connection.

        It runs on a zero-delay timer after the handshake completes; a
        server re-registers after each connection.
        """
        self._backlog.on_item(fn)

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
        """Unbind the port and drop the backlog and its waiter."""
        if not self._backlog.closed:
            self._backlog.close()
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
        self._endpoint = (host.name, local_port)  # every segment's source
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
        self._pump_due = False  # a pump timer is on the heap
        self._fin_seq: Optional[int] = None
        self._closing = False

        # -- receive side
        self._expected_seq = 0
        self._ooo: Dict[int, Tuple[bytes, bool]] = {}  # seq -> (payload, is_fin)
        self._recv_buffer = bytearray()
        #: (event, max_bytes, False) or (on_recv callback, None, True)
        self._recv_waiters: List = []
        self._eof = False

        # -- RTO estimation (RFC 6298 style: one timer per connection)
        self._srtt: Optional[float] = None
        self._rto = 1.0
        self._rtx_backoff = 0
        self._rto_armed = False

    # ------------------------------------------------------------------ API
    @property
    def established(self) -> bool:
        return self.state == "ESTABLISHED"

    @property
    def closed(self) -> bool:
        return self.state == "CLOSED"

    @property
    def progress(self) -> Tuple[int, int]:
        """``(bytes the peer acked, bytes received in order)``: moves
        whenever the connection makes headway in either direction."""
        return (self._last_acked, self._expected_seq)

    @property
    def send_pending(self) -> bool:
        """Sent data the peer has not acked yet (queued or in flight).
        While it has, the retransmission timer is in charge of it."""
        return bool(self._send_buffer or self._unacked)

    def send(self, data: bytes, tail: bool = False) -> None:
        """Queue ``data`` for transmission.

        Never blocks (send buffering is unbounded, like a kernel with a
        large socket buffer), so there is no event to wait on; delivery
        timing is governed by the window/ACK machinery.

        ``tail``: the call is its caller's last action in the step, so
        the pump may run in place (see the module docstring).
        """
        if self.state == "CLOSED":
            raise ConnectionReset("send on closed connection")
        if self._closing:
            raise RuntimeError("send after close()")
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("TCP payload must be bytes")
        self._send_buffer.extend(data)
        self._wake_sender(tail)

    def recv(self, max_bytes: Optional[int] = None):
        """Event yielding available bytes (up to ``max_bytes``).

        Blocks while the stream is empty; yields ``b""`` once the peer
        has closed and the buffer is drained.
        """
        event = self.env.event()
        self._recv_waiters.append((event, max_bytes, False))
        self._satisfy_receivers()
        return event

    def on_recv(self, fn: Callable[[bytes], None]) -> None:
        """Call ``fn(data)`` once, with the bytes :meth:`recv` would
        yield.

        The callback form of :meth:`recv`: a one-shot waiter in the same
        queue, fired by ``call_later(0.0, fn, data)`` where a
        :meth:`recv` event would succeed, so it runs in that event's
        heap slot.  A reader re-registers after each call.
        """
        self._recv_waiters.append((fn, None, True))
        self._satisfy_receivers()

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
        self._arm_handshake(0)

    def _arm_handshake(self, attempt: int) -> None:
        self.env.call_later(
            self._rto * (2 ** attempt), self._handshake_timeout, attempt
        )

    def _handshake_timeout(self, attempt: int) -> None:
        if self.state != "SYN_SENT":
            return
        if attempt >= 4:
            self.state = "CLOSED"
            self._established.fail(
                ConnectionRefused(f"connect to {self.remote} timed out")
            )
        else:
            self._transmit(flags="SYN", seq=0)
            self._arm_handshake(attempt + 1)

    # ------------------------------------------------------------ packet I/O
    def _transmit(
        self,
        flags: str = "",
        seq: int = 0,
        ack: Optional[int] = None,
        payload: bytes = b"",
    ) -> None:
        self.host.network.send(Packet(
            self._endpoint, self.remote, "tcp", payload, TCP_HEADER_BYTES,
            {"flags": flags, "seq": seq, "ack": ack},
        ))

    def _on_packet(self, packet: Packet) -> None:
        meta = packet.meta
        flags = meta.get("flags", "")
        if self.state == "ESTABLISHED" and (flags == "ACK" or not flags):
            # steady state: data and/or a cumulative ACK, where the
            # general path below would reach the same two calls
            if packet.payload:
                self._on_data(packet)
            ack = meta.get("ack")
            if ack is not None:
                self._on_ack(ack)
            return
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
        unacked = self._unacked
        # insertion order is seq order (a segment is inserted once, at
        # the next seq), so the acked segments are a prefix
        acked = 0
        for seq in unacked:
            segment = unacked[seq]
            if seq + segment.length > ack:
                break
            acked += 1
            if segment.retries == 0:  # Karn's rule
                self._rtt_sample(now - segment.sent_at)
        else:  # every segment in flight is acked
            unacked.clear()
            acked = 0
        if acked:  # the first ``acked`` segments, not all of them
            for seq in list(unacked)[:acked]:
                del unacked[seq]
        self._last_acked = ack
        if self._fin_seq is not None and ack >= self._fin_seq + 1:
            self.state = "CLOSED"
        # the last action of Host.deliver's call chain: tail position
        self._wake_sender(tail=True)

    def _rtt_sample(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
        else:
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        rto = 2.5 * self._srtt
        self._rto = 0.2 if rto < 0.2 else 10.0 if rto > 10.0 else rto

    # ------------------------------------------------------------- send pump
    def _wake_sender(self, tail: bool = False) -> None:
        """Run the send pump on a zero-delay timer, or in place when the
        caller is in ``tail`` position and nothing else is due now."""
        if self._pump_due or self.state == "CLOSED":
            return
        if tail and self.env.zero_delay_is_next():
            self._pump()
        else:
            self._pump_due = True
            self.env.call_later(0.0, self._pump_timer)

    def _pump_timer(self) -> None:
        self._pump_due = False
        self._pump()

    def _pump(self) -> None:
        """Transmit what the window allows, then a pending FIN."""
        if self.state != "ESTABLISHED":
            return
        buffer = self._send_buffer
        while buffer and self._next_seq - self._last_acked < self.window:
            room = self.window - (self._next_seq - self._last_acked)
            chunk_len = len(buffer)
            if chunk_len <= MSS and chunk_len <= room:  # the rest fits
                chunk = bytes(buffer)
                buffer.clear()
            else:
                chunk_len = min(MSS, chunk_len, room)
                chunk = bytes(buffer[:chunk_len])
                del buffer[:chunk_len]
            seq = self._next_seq
            self._next_seq += chunk_len
            self._unacked[seq] = _Segment(chunk, False, self.env.now, 0)
            self._transmit(seq=seq, ack=self._expected_seq, payload=chunk)
            self._arm_rto()
        if self._closing and not buffer and self._fin_seq is None:
            self._fin_seq = self._next_seq
            self._unacked[self._fin_seq] = _Segment(b"", True, self.env.now, 0)
            self._next_seq += 1
            self._transmit(flags="FIN", seq=self._fin_seq, ack=self._expected_seq)
            self._arm_rto()

    # ------------------------------------------------------ retransmission
    def _arm_rto(self) -> None:
        """Start the retransmission timer unless it is already running."""
        if not self._rto_armed:
            self._rto_armed = True
            self.env.call_later(
                self._rto * (2 ** min(self._rtx_backoff, 6)),
                self._on_rto,
                self._last_acked,
            )

    def _on_rto(self, acked_snapshot: int) -> None:
        """The retransmission timer fired (see the module docstring).

        It covers the *oldest* unacked segment and restarts on any
        cumulative-ACK progress, so queueing delay behind a slow link does
        not trigger spurious retransmission storms for segments that are
        still waiting their turn at the bottleneck.
        """
        self._rto_armed = False
        if self.state == "CLOSED" or not self._unacked:
            return  # dead, or idle until the next transmit arms it
        if self._last_acked != acked_snapshot:
            self._rtx_backoff = 0  # forward progress: restart the timer
        else:
            oldest = min(self._unacked)
            segment = self._unacked[oldest]
            if segment.retries >= MAX_RETRIES:
                self._teardown(ConnectionReset(f"retransmission limit for seq {oldest}"))
                return
            segment.retries += 1
            segment.sent_at = self.env.now
            self._rtx_backoff += 1
            if segment.is_fin:
                self._transmit(flags="FIN", seq=oldest, ack=self._expected_seq)
            else:
                self._transmit(seq=oldest, ack=self._expected_seq, payload=segment.payload)
        self._arm_rto()

    # ------------------------------------------------------------ teardown
    def _teardown(self, error: Exception) -> None:
        self.state = "CLOSED"
        self._eof = True
        self._satisfy_receivers()
        if not self._established.triggered:
            self._established.fail(error)

    # ----------------------------------------------------------- receivers
    def _satisfy_receivers(self) -> None:
        waiters = self._recv_waiters
        buffer = self._recv_buffer
        while waiters:
            if buffer:
                waiter, max_bytes, callback = waiters.pop(0)
                if max_bytes is None or max_bytes >= len(buffer):
                    data = bytes(buffer)
                    buffer.clear()
                else:
                    data = bytes(buffer[:max_bytes])
                    del buffer[:max_bytes]
            elif self._eof:
                waiter, _, callback = waiters.pop(0)
                data = b""
            else:
                break
            if callback:  # on_recv: in the heap slot of the event
                self.env.call_later(0.0, waiter, data)
            else:
                waiter.succeed(data)

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.host.name}:{self.local_port}<->"
            f"{self.remote[0]}:{self.remote[1]} {self.state}>"
        )
