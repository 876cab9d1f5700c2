"""The timer-driven :class:`~repro.net.TcpConnection` against the
process-based connection it replaced.

``ProcessTcpConnection`` keeps the connection's timers as they were
modelled before: one send-pump process woken by a ``_send_wakeup``
event, one retransmit-loop process woken by an ``_rtx_wakeup`` event
that then waits on a timeout, and one process per handshake attempt.
The state machine (``_on_packet``, ``_on_data``, ``_on_ack``) is the
production one; only the timer machinery differs.

Both models run the same random schedule of connects (two connections
share the client's uplink), sends of up to several MSS against small
windows, ``close()`` (also before the handshake completes), ``abort()``,
connects to a port nobody listens on (RST), partitions long enough to
hit the retransmission limit or the handshake timeout, and heals, over
a lossy, jittery link that draws from the network's shared RNG.  Every
transmitted segment and every application event is logged as
``(env.now, what)``; the traces, the RNG state, the links' ``tx_bytes``
and the final connection states must agree.

Timings are dyadic on most draws (bandwidths of 2**16 and 2**20 bit/s,
latencies of 1/8 and 1/64 s, a 1/8 s schedule grid), so segments often
arrive in the very instant of another event, which drives the ACK
pump's tail-position rule both ways.  An RTO or handshake timer is
pushed when it is armed, earlier than the old process pushed its
timeout in the same instant; that can reorder it only against an entry
with the identical fire time pushed in between.  Every single link or
propagation delay here is below the 0.2 s RTO floor, and the
application arms no timers of its own, so no such tie exists.
"""

import zlib
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.tcp as tcp_module
from repro.net import Network
from repro.net.tcp import (
    DEFAULT_WINDOW,
    MAX_RETRIES,
    MSS,
    ConnectionRefused,
    ConnectionReset,
    TcpConnection,
)
from repro.simkernel import Environment
from ..waiting import next_connection

#: schedule slots are multiples of this many seconds (exact in binary)
GRID_S = 1 / 8
PORT = 80
CLOSED_PORT = 81


class ProcessTcpConnection(TcpConnection):
    """Oracle: the send pump, retransmit loop and handshake timer as
    processes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._send_wakeup = self.env.event()
        self._rtx_wakeup = self.env.event()
        name = f"{self.host.name}:{self.local_port}"
        self.env.process(self._send_pump(), name=f"tcp-pump-{name}")
        self.env.process(self._retransmit_loop(), name=f"tcp-rtx-{name}")

    def _start_connect(self):
        self._transmit(flags="SYN", seq=0)
        self.env.process(self._handshake_timer(0), name="tcp-handshake-timer")

    def _handshake_timer(self, attempt):
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

    def _teardown(self, error):
        super()._teardown(error)
        self._wake_sender()

    def _wake_sender(self, tail=False):
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
                self._unacked[seq] = tcp_module._Segment(chunk, False, env.now, 0)
                self._transmit(seq=seq, ack=self._expected_seq, payload=chunk)
                self._wake_rtx()
            elif self._closing and not self._send_buffer and self._fin_seq is None:
                self._fin_seq = self._next_seq
                self._unacked[self._fin_seq] = tcp_module._Segment(b"", True, env.now, 0)
                self._next_seq += 1
                self._transmit(flags="FIN", seq=self._fin_seq, ack=self._expected_seq)
                self._wake_rtx()
                yield self._wait_wakeup()
            else:
                yield self._wait_wakeup()

    def _wake_rtx(self):
        if not self._rtx_wakeup.triggered:
            self._rtx_wakeup.succeed()

    def _retransmit_loop(self):
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
                self._rtx_backoff = 0
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


class TailProbeEnvironment(Environment):
    """Records what :meth:`zero_delay_is_next` answered (the oracle
    never asks, the timer model asks once per tail-position wake) and
    counts the pump timers pushed."""

    def __init__(self):
        super().__init__()
        self.answers = []
        self.pump_timers = 0

    def zero_delay_is_next(self):
        answer = super().zero_delay_is_next()
        self.answers.append(answer)
        return answer

    def call_later(self, delay, fn, *args):
        self.pump_timers += getattr(fn, "__name__", "") == "_pump_timer"
        super().call_later(delay, fn, *args)


def simulate(model, link, window, echo, actions, tail=False):
    """Run ``actions`` with ``model`` as the connection class; returns
    ``(trace, rng_state, tx_bytes, final_states, env)``.

    ``tail`` makes every send a ``send(data, tail=True)``: each is the
    last action of its step (of a schedule timer, or of a reader that
    then waits on ``recv``), so the pump may run in place.  The oracle
    ignores the flag and always wakes its pump process.
    """
    env = TailProbeEnvironment()
    net = Network(env, seed=11)
    client, server = net.add_host("client"), net.add_host("server")
    bandwidth, latency, jitter, loss = link
    net.connect("client", "server", bandwidth_bps=bandwidth, latency_s=latency,
                jitter_s=jitter, loss=loss)
    trace = []

    def log(*what):
        trace.append((env.now,) + what)

    send_packet = net.send

    def wire(packet):
        meta = packet.meta
        log("tx", packet.src, packet.dst, meta["flags"], meta["seq"], meta["ack"],
            len(packet.payload))
        send_packet(packet)

    net.send = wire
    conns = {"client": [], "server": []}

    def reader(side, index, conn):
        while True:
            data = yield conn.recv()
            log("recv", side, index, len(data), zlib.crc32(data))
            if not data:
                return
            if echo and side == "server":
                attempt(side, index, "echo", conn.send, data, tail)

    def attempt(side, index, what, fn, *args):
        try:
            fn(*args)
        except (ConnectionReset, RuntimeError) as exc:
            log("error", side, index, what, type(exc).__name__)

    def serve():
        while True:
            conn = yield next_connection(listener)
            index = len(conns["server"])
            conns["server"].append(conn)
            conn.window = window
            log("accept", index, conn.remote)
            env.process(reader("server", index, conn))

    def connect(port):
        # what Host.tcp_connect does, keeping the handle so that close()
        # and abort() can reach a connection still in its handshake
        index = len(conns["client"])
        conn = model(client, client._alloc_port(), ("server", port), initiator=True)
        client._register_tcp(conn)
        conns["client"].append(conn)
        conn.window = window
        conn._start_connect()

        def established(event):
            if event.ok:
                log("established", index)
                env.process(reader("client", index, conn))
            else:
                log("failed", index, type(event.value).__name__)

        conn._established.callbacks.append(established)

    def act(kind, side, index, size, seq):
        targets = conns[side]
        if kind == "connect":
            connect(CLOSED_PORT if size % 5 == 0 else PORT)
        elif kind in ("partition", "heal"):
            src, dst = ("client", "server") if side == "client" else ("server", "client")
            getattr(net.link(src, dst), kind)()
            log(kind, src)
        elif index < len(targets):
            conn = targets[index]
            if kind == "send":
                data = bytes([seq % 251]) * size
                attempt(side, index, kind, conn.send, data, tail)
            elif kind == "close":
                attempt(side, index, kind, conn.close)
            else:
                attempt(side, index, kind, conn.abort)

    with mock.patch.object(tcp_module, "TcpConnection", model):
        listener = server.tcp_listen(PORT)
        env.process(serve())
        for seq, (slot, kind, side, index, size) in enumerate(
            sorted(actions, key=lambda a: a[0])
        ):
            env.call_later(slot * GRID_S, act, kind, side, index, size, seq)
        env.run()
    states = {
        side: [(c.state, c._next_seq, c._last_acked, c._expected_seq, c._rtx_backoff)
               for c in side_conns]
        for side, side_conns in conns.items()
    }
    tx_bytes = (net.link("client", "server").tx_bytes.total,
                net.link("server", "client").tx_bytes.total)
    return trace, net.rng.bit_generator.state, tx_bytes, states, env


def assert_equivalent(link, window, echo, actions, tail=False):
    expected = simulate(ProcessTcpConnection, link, window, echo, actions)
    got = simulate(TcpConnection, link, window, echo, actions, tail)
    assert got[0] == expected[0]  # (env.now, what) trace
    assert got[1:4] == expected[1:4]  # RNG draws, link bytes, final states
    return got


links = st.tuples(
    st.sampled_from([2.0 ** 16, 2.0 ** 20, 1_000_003.0, 1e9]),  # bandwidth_bps
    st.sampled_from([1 / 8, 1 / 64, 0.0123, 0.0]),  # latency_s
    st.sampled_from([0.0, 0.0, 0.004]),  # jitter_s
    st.sampled_from([0.0, 0.0, 0.1, 0.3]),  # loss
)
windows = st.sampled_from([DEFAULT_WINDOW, 3 * MSS, 2000, 600])
action = st.tuples(
    st.integers(0, 48),
    st.sampled_from(["connect", "send", "send", "send", "send", "close", "abort",
                     "partition", "heal"]),
    st.sampled_from(["client", "client", "server"]),
    st.integers(0, 1),
    st.integers(1, 4 * MSS),
)
schedule = st.lists(action, max_size=20)

#: one connection that exchanges a multi-MSS request and closes
EXCHANGE = [
    (0, "connect", "client", 0, 1),
    (4, "send", "client", 0, 3 * MSS + 17),
    (4, "send", "client", 0, 100),
    (12, "close", "client", 0, 1),
    (14, "close", "server", 0, 1),
]

#: RST from a port nobody listens on and from an aborted peer, and a
#: connection closed before its handshake completes
RESETS = [
    (0, "connect", "client", 0, 5),  # to the closed port
    (0, "connect", "client", 0, 1),
    (0, "connect", "client", 0, 1),
    (0, "close", "client", 2, 1),
    (3, "send", "client", 1, 10),
    (3, "send", "client", 2, 10),
    (8, "abort", "server", 0, 1),
    (8, "abort", "server", 1, 1),
    (9, "send", "client", 1, 10),
]


#: a send, then a connect on the same link in the same instant: the SYN
#: goes out at once, and a tail send's pump must still wait behind it
SEND_THEN_CONNECT = [
    (0, "connect", "client", 0, 1),
    (4, "send", "client", 0, 2 * MSS),
    (4, "connect", "client", 1, 1),
    (8, "send", "client", 1, 100),
]


@given(link=links, window=windows, echo=st.booleans(), actions=schedule,
       tail=st.booleans())
@example(link=(2.0 ** 20, 1 / 8, 0.0, 0.0), window=600, echo=True, actions=EXCHANGE,
         tail=False)
@example(link=(2.0 ** 20, 1 / 8, 0.0, 0.0), window=600, echo=True, actions=EXCHANGE,
         tail=True)
# a lost pure ACK makes the echo carry new ACK information with its data
@example(link=(2.0 ** 16, 1 / 64, 0.0, 0.3), window=600, echo=True, actions=EXCHANGE,
         tail=True)
@example(
    link=(2.0 ** 20, 1 / 8, 0.0, 0.0), window=DEFAULT_WINDOW, echo=False,
    actions=[(0, "connect", "client", 0, 1), (0, "connect", "client", 0, 2),
             (4, "send", "client", 0, 2 * MSS), (4, "send", "client", 1, 2 * MSS),
             (5, "partition", "client", 0, 1)],
    tail=True,
)
@example(link=(1e9, 0.0123, 0.004, 0.0), window=3 * MSS, echo=True, actions=RESETS,
         tail=False)
@example(link=(2.0 ** 16, 1 / 64, 0.0, 0.0), window=DEFAULT_WINDOW, echo=True,
         actions=SEND_THEN_CONNECT, tail=True)
@settings(max_examples=200, deadline=None)
def test_timer_connection_matches_process_model(link, window, echo, actions, tail):
    assert_equivalent(link, window, echo, actions, tail)


def test_oracle_exercises_every_timer_path():
    """Guard against a vacuous oracle: hand-picked schedules drive the
    in-place and the deferred ACK pump, tail sends, window-bound sends,
    retransmission with backoff, the retransmission limit, the
    handshake timeout, RST, abort and close before establishment, and
    both models still agree."""
    trace, _, _, states, env = assert_equivalent(
        (2.0 ** 20, 1 / 8, 0.0, 0.0), 600, True, EXCHANGE
    )
    assert True in env.answers and False in env.answers
    sizes = [what[6] for _, *what in trace if what[0] == "tx" and what[6]]
    assert max(sizes) <= 600 and sum(sizes) > 6 * 600  # window-bound, both ways
    assert states["client"][0][0] == states["server"][0][0] == "CLOSED"
    # tail sends: some pump in place, so fewer pump timers
    *_, tail_env = assert_equivalent(
        (2.0 ** 20, 1 / 8, 0.0, 0.0), 600, True, EXCHANGE, tail=True
    )
    assert 0 < tail_env.pump_timers < env.pump_timers
    # a tail send with a connect due in its instant: deferred, so the
    # SYN goes out first
    trace, *_ = assert_equivalent(
        (2.0 ** 16, 1 / 64, 0.0, 0.0), DEFAULT_WINDOW, True, SEND_THEN_CONNECT,
        tail=True,
    )
    at_slot = [w[3] or w[6] for t, *w in trace if w[0] == "tx" and t == 4 * GRID_S]
    assert at_slot == ["SYN", MSS, MSS]

    # the uplink goes down for good: RTO backoff up to the retry limit
    trace, _, _, states, _ = assert_equivalent(
        (2.0 ** 20, 1 / 64, 0.0, 0.0), DEFAULT_WINDOW, False,
        [(0, "connect", "client", 0, 1), (2, "partition", "client", 0, 1),
         (2, "send", "client", 0, 100), (2, "connect", "client", 0, 1)],
    )
    resent = [t for t, *what in trace if what[0] == "tx" and what[6] == 100]
    gaps = [round(b - a, 6) for a, b in zip(resent, resent[1:])]
    assert len(resent) == MAX_RETRIES + 1 and gaps == sorted(gaps) and gaps[0] < gaps[-1]
    assert states["client"][0][0] == "CLOSED"  # retransmission limit
    assert ("failed", 1, "ConnectionRefused") in [tuple(w) for _, *w in trace]

    # RST from a port nobody listens on, and from an aborted peer
    trace, _, _, states, _ = assert_equivalent(
        (1e9, 0.0123, 0.004, 0.0), 3 * MSS, True, RESETS
    )
    events = [tuple(w) for _, *w in trace]
    assert ("failed", 0, "ConnectionRefused") in events
    assert any(w[0] == "tx" and w[3] == "RST" for w in events)
    assert ("recv", "client", 1, 0, 0) in events  # EOF after the peer's reset
    # closed before its handshake completed: sent only its FIN
    assert states["client"][2] == ("CLOSED", 1, 1, 0, 0)
    assert [s[0] for s in states["client"]] == ["CLOSED"] * 3
