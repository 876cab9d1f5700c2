"""The transport-agnostic capture client façade.

This owns the paper's client-side critical path exactly once — the
calibrated attribute-cost charging, ended-task grouping, binary
encoding + compression, per-message memory accounting, the background
sender and the ``flush_groups()/drain()/close()`` semantics — and
delegates only the wire to a pluggable
:class:`~repro.capture.CaptureTransport` picked from the registry by
``config.transport``.  Every transport runs through this one class, so
any measured difference between them is attributable to the protocol
alone (the design property behind the protocol-comparison benchmark).

Blocking transports (``transport.blocking``) are serviced inline: each
send runs in the workflow's process, on its critical path, reproducing
the baselines' Table II/III behaviour.  Asynchronous transports hand
payloads to a background sender, which is what keeps ProvLight's capture
calls flat across bandwidths (Tables VII/VIII).  The sender is no
process: it is the queue's ``Mailbox.on_item`` consumer, which ships one
entry with ``transport.send(payload, on_done)`` and takes the next once
``on_done`` reported the outcome.

Durability (``config.durable``): every outbound payload is appended to
a :class:`~repro.capture.journal.CaptureJournal` *before* dispatch and
travels inside a dedup envelope (:mod:`repro.capture.envelope`).  A
delivery failure — QoS retries exhausted, server gone, uplink
partitioned — parks the entry for replay and trips the reconnect state
machine: exponential backoff with jitter, a transport ``reconnect()``
probe, then in-order replay of every unacknowledged entry.  Successful
deliveries acknowledge (and truncate) their journal entry.  Combined
with server-side ``(client_id, seq)`` dedup this gives at-least-once
transport semantics and exactly-once backend ingestion, and a journal
left behind by a crashed client is replayed by the next ``setup()``.

A best-effort client on a session transport (``requires_setup``:
MQTT-SN) loses a failed delivery but runs the same machine with nothing
to replay, probing once before its next send, since the failure may mean
the session is gone (a failed-over broker shard drops it).  If that probe
fails too the sender goes on, and its next failed send probes again; so a
best-effort client never holds a record for a server that does not come
back.  Connectionless transports (CoAP) never reconnect.
"""

from __future__ import annotations

import random
import zlib
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..core.grouping import GroupBuffer
from ..core.model import count_attributes_from_record
from ..core.serialization import encode_payload
from ..simkernel import Mailbox
from .config import CaptureConfig
from .envelope import wrap_payload
from .registry import create_transport

if TYPE_CHECKING:
    from .journal import CaptureJournal

__all__ = [
    "create_client",
    "CaptureClient",
    "CaptureClosedError",
    "CaptureSenderError",
    "STATE_DISCONNECTED",
    "STATE_CONNECTED",
    "STATE_RECONNECTING",
    "STATE_CLOSED",
]

#: connection states reported to :meth:`CaptureClient.add_connection_listener`
STATE_DISCONNECTED = "disconnected"
STATE_CONNECTED = "connected"
STATE_RECONNECTING = "reconnecting"
STATE_CLOSED = "closed"

class CaptureClosedError(RuntimeError):
    """The capture client was closed; pending drains fail with this."""


class CaptureSenderError(RuntimeError):
    """The background sender hit an unexpected transport error.

    The sender is supervised: it survives the error and is restarted
    under the reconnect backoff policy, but the failure is surfaced on
    the next ``capture()``/``drain()`` so an instrumented workflow (or a
    test) can notice a misbehaving transport instead of silently losing
    its capture stream.
    """


class CaptureClient:
    """Capture client bound to one device, shipping to one topic.

    Build instances through :func:`repro.capture.create_client`; the
    transport is the one registered under ``config.transport``, and its
    protocol knobs are reachable as ``client.transport`` (e.g.
    ``client.transport.mqtt`` for the MQTT-SN retry settings).
    """

    def __init__(self, device, server, topic: str,
                 config: Optional[CaptureConfig] = None):
        if device.host is None:
            raise RuntimeError(
                f"device {device.name} is not attached to a network host"
            )
        self.config = config = config or CaptureConfig()
        self.device = device
        self.env = device.env
        self.server = server
        self.topic = topic
        self.qos = config.qos
        self.compress = config.compress
        self.cipher = config.cipher
        self.costs = config.costs
        self.footprints = config.footprints
        self.group_buffer = GroupBuffer(config.group_size)
        #: stable identity: journal file, envelope dedup key, backoff seed
        self.client_id = config.client_id or f"{device.name}/{topic}"
        self.transport = create_transport(device, server, topic, config)
        self.handle: Any = None
        self._ready = False
        self._closed = False
        self._queue = Mailbox(self.env)
        self._outstanding = 0
        self._drain_waiters: List = []
        metrics = self.env.metrics
        self.messages_sent = metrics.counter("capture", "messages_sent", client=self.client_id)
        self.payload_bytes = metrics.counter("capture", "payload_bytes", client=self.client_id)
        self.records_captured = metrics.counter(
            "capture", "records_captured", client=self.client_id)
        self.replayed = metrics.counter("capture", "replayed", client=self.client_id)
        self.journal: Optional[CaptureJournal] = None
        self._journal_closed = False
        if config.durable:
            # only a durable client loads the journal (and hashlib)
            from .journal import DEFAULT_JOURNAL_DIR, CaptureJournal, journal_path_for

            journal_dir = config.journal_dir or DEFAULT_JOURNAL_DIR
            self.journal = CaptureJournal(
                journal_path_for(journal_dir, self.client_id),
                self.client_id,
                signer=config.signer,
            )
        self.connection_state = STATE_DISCONNECTED
        self._state_listeners: List = []
        #: entries awaiting replay after a delivery failure: (wire, nbytes, seq)
        self._replay: List = []
        #: set while the reconnect machine runs: the sender parks on it,
        #: and a blocking capture queues behind the replay instead of
        #: racing it
        self._pause_gate = None
        self._sender_failure: Optional[BaseException] = None
        self._sender_item = None  # item the sender holds while in flight
        self._rng = random.Random(zlib.crc32(self.client_id.encode("utf-8")))
        device.memory.allocate(config.footprints.provlight_lib_bytes,
                               tag="capture-static")
        if not self.transport.blocking:
            self._queue.on_item(self._on_item)

    # ------------------------------------------------------------------ API
    @property
    def now(self) -> float:
        """Simulated clock (used by model classes for record timestamps)."""
        return self.env.now

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def durable(self) -> bool:
        return self.journal is not None

    def add_connection_listener(self, callback) -> None:
        """Register ``callback(state)`` for connection-state transitions
        (``connected`` / ``reconnecting`` / ``closed``)."""
        self._state_listeners.append(callback)

    def setup(self):
        """Generator: establish the transport and announce the topic.

        Idempotent: a client that is already set up returns immediately,
        so deployment frameworks can hand out ready clients and
        workloads can still call ``setup()`` unconditionally.

        A durable client also recovers its journal here: entries a
        previous incarnation appended but never got acknowledged are
        scheduled for replay (the server's dedup makes re-sends of
        actually-delivered entries harmless).
        """
        self._check_open()
        if self._ready:
            return self
        yield from self.transport.connect()
        self.handle = yield from self.transport.register(self.topic)
        self._ready = True
        self._set_state(STATE_CONNECTED)
        if self.journal is not None:
            self._recover_journal()
        return self

    def capture(self, record: Dict[str, Any], groupable: bool = True):
        """Generator: capture one record (called by the model classes).

        Charges calibrated inline costs, produces the real payload bytes
        and hands them to the transport.  For asynchronous transports
        this returns as soon as the record is queued — that is the
        *entire* workflow-visible cost; blocking transports additionally
        stall for their request/response cycle, like the real baseline
        libraries.
        """
        self._check_open()
        self._raise_sender_failure()
        if not self._ready and self.transport.requires_setup:
            raise RuntimeError("capture before setup()")
        n_attrs = count_attributes_from_record(record)
        costs = self.costs
        cpu_run = self.device.cpu.run
        # a record counts as captured only once its inline charge returned:
        # a device killed during the charge never handed it to the library
        if groupable and self.group_buffer.enabled:
            yield from cpu_run(
                compute_s=costs.buffered_fixed_compute_s
                + costs.buffered_per_attr_compute_s * n_attrs,
                io_wait_s=costs.buffered_io_s,
                tag="capture",
            )
            self.records_captured.record()
            group = self.group_buffer.add(record)
            if group is not None:
                yield from self._flush_group(group)
        else:
            yield from cpu_run(
                compute_s=costs.inline_fixed_compute_s
                + costs.inline_per_attr_compute_s * n_attrs,
                io_wait_s=costs.inline_io_s,
                tag="capture",
            )
            self.records_captured.record()
            yield from self._dispatch(
                encode_payload(record, compress=self.compress, cipher=self.cipher)
            )

    def flush_groups(self):
        """Generator: force out a partial group (workflow end)."""
        group = self.group_buffer.flush()
        if group is not None:
            yield from self._flush_group(group)
        return None
        yield  # pragma: no cover - make this a generator even when empty

    def drain(self):
        """Generator: wait until every in-flight message completed its
        delivery contract.  Diagnostic/teardown helper; the paper's
        overhead metric intentionally does not include this wait.

        On a durable client this includes entries parked for replay: the
        drain resolves only once the reconnect machine delivered them.
        A best-effort client's drain resolves once every message was
        delivered or lost, also when the server never comes back.

        Raises :class:`CaptureClosedError` on a closed client — both
        when called after ``close()`` (a post-close drain would never
        resolve: the sender is gone) and when the client is closed while
        the drain is pending.
        """
        self._check_open()
        self._raise_sender_failure()
        if self._outstanding == 0 and not self._queue.items:
            return
        event = self.env.event()
        self._drain_waiters.append(event)
        yield event

    def close(self) -> None:
        """Tear down: stop the sender, free pending buffers, fail any
        ``drain()`` waiters, disconnect and release the static memory.

        Idempotent.  Queued-but-unsent payloads are dropped (their
        ``capture-buffers`` allocations freed); a message the transport
        already holds in flight completes or times out in the background
        and releases its buffer then.  On a durable client the dropped
        entries stay unacknowledged in the journal, so the next
        ``setup()`` on the same journal replays them — close() loses
        memory, never durable state.
        """
        if self._closed:
            return
        self._closed = True
        for _, nbytes, _ in self._queue.drain() + self._replay:
            self.device.memory.free(nbytes, tag="capture-buffers")
            self._outstanding -= 1
        self._replay.clear()
        self._queue.close()  # an idle sender's registration goes with it
        gate, self._pause_gate = self._pause_gate, None
        if gate is not None:
            gate.succeed()  # let a parked sender observe _closed
        waiters, self._drain_waiters = self._drain_waiters, []
        for event in waiters:
            event.fail(CaptureClosedError(
                f"capture client for topic {self.topic!r} closed with "
                "messages outstanding"
            ))
        self.transport.disconnect()
        if self.journal is not None and not self._journal_closed:
            self._journal_closed = True
            self.journal.close()
        self.device.memory.free(
            self.footprints.provlight_lib_bytes, tag="capture-static"
        )
        self._set_state(STATE_CLOSED)

    # ------------------------------------------------------------- internals
    def _check_open(self) -> None:
        if self._closed:
            raise CaptureClosedError(
                f"capture client for topic {self.topic!r} is closed"
            )

    def _raise_sender_failure(self) -> None:
        if self._sender_failure is not None:
            cause, self._sender_failure = self._sender_failure, None
            raise CaptureSenderError(
                f"background sender for topic {self.topic!r} failed "
                f"({type(cause).__name__}: {cause}) and was restarted"
            ) from cause

    def _set_state(self, state: str) -> None:
        if state == self.connection_state:
            return
        self.connection_state = state
        for callback in list(self._state_listeners):
            try:
                callback(state)
            except Exception:  # lint: disable=bare-swallow(a listener is observability, never control flow: a buggy one must not take down the capture pipeline)
                pass

    def _flush_group(self, group: List[Dict[str, Any]]):
        costs = self.costs
        yield from self.device.cpu.run(
            compute_s=costs.group_flush_fixed_compute_s
            + costs.group_flush_per_record_compute_s * len(group),
            io_wait_s=costs.group_flush_io_s,
            tag="capture",
        )
        yield from self._dispatch(
            encode_payload(group, compress=self.compress, cipher=self.cipher)
        )

    def _dispatch(self, payload: bytes):
        """Generator: journal + account for one outbound payload and ship
        it — queued for the sender loop, or sent from the caller's own
        process when the transport blocks."""
        seq = None
        wire = payload
        if self.journal is not None:
            seq = self.journal.append(payload, ts=self.env.now)
            wire = wrap_payload(self.client_id, seq, payload)
        nbytes = len(wire) + self.footprints.per_message_overhead_bytes
        self.device.memory.allocate(nbytes, tag="capture-buffers")
        self._outstanding += 1
        if not self.transport.blocking:
            self._queue.put_nowait((wire, nbytes, seq))
            return
        if self._pause_gate is not None:  # queue behind the replay
            self._replay.append((wire, nbytes, seq))
            return
        delivered = True
        try:
            yield from self.transport.send(wire)
        except self.transport.delivery_error:
            # delivery failed; without a journal the record is lost, but
            # capture must never crash the workflow
            delivered = False
        except Exception:
            self._release(nbytes)  # a bug: surface it, neither sent nor acked
            raise
        if delivered or self.journal is None:
            self._complete(wire, nbytes, seq, delivered=delivered)
        else:
            self._mark_failed(wire, nbytes, seq)

    def _complete(self, wire: bytes, nbytes: int, seq: Optional[int],
                  delivered: bool = True) -> None:
        self.messages_sent.record()
        self.payload_bytes.record(len(wire))
        if (delivered and seq is not None
                and self.journal is not None and not self._journal_closed):
            self.journal.ack(seq)
        self._release(nbytes)

    def _release(self, nbytes: int) -> None:
        self.device.memory.free(nbytes, tag="capture-buffers")
        self._outstanding -= 1
        if self._outstanding == 0 and not self._queue.items:
            waiters, self._drain_waiters = self._drain_waiters, []
            for event in waiters:
                event.succeed()

    # ------------------------------------------------ sender + supervision
    def _on_item(self, item) -> None:
        """The sender: the queue's consumer.  It ships one entry at a
        time, in seq order, and registers for the next once the
        transport reported the outcome."""
        self._sender_item = item
        self._transmit()

    def _transmit(self, _gate=None) -> None:
        gate = self._pause_gate
        if gate is not None:
            # the reconnect machine owns the transport: park until it
            # ends, since the replay entries must go out first
            gate.callbacks.append(self._transmit)
            return
        wire, nbytes, seq = self._sender_item
        if self._closed:
            self._sender_item = None
            self._complete(wire, nbytes, seq, delivered=False)
            return
        try:
            self.transport.send(wire, self._on_sent)
        except Exception as exc:
            self._sender_crashed(exc)
            return
        # delivery bookkeeping (QoS handshakes, retransmissions) runs on
        # a background thread: busy CPU, but off the workflow path
        self.device.cpu.run_async(
            io_busy_s=self.costs.async_per_message_io_s, tag="capture"
        )

    def _on_sent(self, exc: Optional[BaseException]) -> None:
        wire, nbytes, seq = self._sender_item
        self._sender_item = None
        try:
            if exc is None:
                self._complete(wire, nbytes, seq)
            elif self.journal is None:
                # without a journal the record is lost, but capture must
                # never crash the workflow; a session transport may have
                # lost its session too (a failed-over broker shard drops
                # it), so probe once before the next send
                self._complete(wire, nbytes, seq, delivered=False)
                if self.transport.requires_setup:
                    self._start_recovery(probe_once=True)
            else:
                self._mark_failed(wire, nbytes, seq)
        except Exception as error:
            self._sender_crashed(error)
            return
        self._await_item()

    def _sender_crashed(self, exc: Exception) -> None:
        """Supervision: an unexpected transport exception never stops the
        sender silently — the error is stashed for the next
        ``capture()``/``drain()``, the entry in hand is parked for
        replay (durable) or counted lost (best-effort), and the sender
        takes the next entry after a backoff delay."""
        self._sender_failure = exc
        item, self._sender_item = self._sender_item, None
        if item is not None:
            wire, nbytes, seq = item
            if self.journal is not None:
                self._mark_failed(wire, nbytes, seq)
            else:
                self._complete(wire, nbytes, seq, delivered=False)
        self.env.call_later(self._backoff_delay(0), self._await_item)

    def _await_item(self) -> None:
        if not self._closed:
            self._queue.on_item(self._on_item)

    # --------------------------------------------- reconnect state machine
    def _mark_failed(self, wire: bytes, nbytes: int, seq: Optional[int]) -> None:
        """Park a journaled entry for replay and trip the reconnect
        machine (idempotent while one is already running)."""
        self._replay.append((wire, nbytes, seq))
        self._start_recovery()

    def _recover_journal(self) -> None:
        """Schedule replay of entries a previous incarnation left
        unacknowledged (crash recovery)."""
        rows = self.journal.unacked()
        if not rows:
            return
        overhead = self.footprints.per_message_overhead_bytes
        for seq, payload in rows:
            wire = wrap_payload(self.client_id, seq, payload)
            nbytes = len(wire) + overhead
            self.device.memory.allocate(nbytes, tag="capture-buffers")
            self._outstanding += 1
            self._replay.append((wire, nbytes, seq))
        self._start_recovery(established=True)

    def _start_recovery(self, established: bool = False,
                        probe_once: bool = False) -> None:
        if self._closed or self._pause_gate is not None:
            return  # closed, or the machine is already running
        self._set_state(STATE_RECONNECTING)
        self._pause_gate = self.env.event()
        self._run_recovery(established, probe_once, 0)

    def _run_recovery(self, established: bool, probe_once: bool,
                      attempt: int) -> None:
        self.env.process(
            self._recovery_loop(established, probe_once, attempt),
            name=f"capture-recovery-{self.topic}",
        )

    def _recovery_loop(self, established: bool, probe_once: bool, attempt: int):
        """Exponential backoff + reconnect probe + in-order replay.

        ``established`` skips the first probe: crash recovery runs right
        after ``setup()`` already performed the handshake.  With
        ``probe_once`` (best-effort) a failed probe ends the machine: the
        sender resumes disconnected, and its next failed send starts the
        machine again.  An asynchronous transport replays through
        :meth:`_replay_next`'s callbacks, and a failed replay send starts
        this loop again at the next backoff ``attempt``.
        """
        while not self._closed:
            if not established:
                yield self.env.timeout(self._backoff_delay(attempt))
                attempt += 1
                if self._closed:
                    return
                try:
                    self.handle = yield from self.transport.reconnect(self.topic)
                except Exception:
                    if probe_once:
                        self._end_recovery(STATE_DISCONNECTED)
                        return
                    continue  # uplink still down: back off harder
                self.env.metrics.event("reconnect", client=self.client_id)
            established = False
            if not self.transport.blocking:
                self._replay_next(attempt)
                return
            while self._replay and not self._closed:
                wire, nbytes, seq = self._replay[0]
                try:
                    yield from self.transport.send(wire)
                except self.transport.delivery_error:
                    break  # still unreachable: back off and re-probe
                if self._closed:
                    return  # close() already freed and cleared _replay
                self._replayed(wire, nbytes, seq)
            else:
                if not self._closed:
                    self._end_recovery(STATE_CONNECTED)
                return

    def _replay_next(self, attempt: int) -> None:
        """Send the oldest replay entry, or end the machine once none is
        left."""
        if self._closed:
            return
        if not self._replay:
            self._end_recovery(STATE_CONNECTED)
            return
        try:
            self.transport.send(self._replay[0][0], partial(self._on_replay_sent, attempt))
        except self.transport.delivery_error:
            self._run_recovery(False, False, attempt)  # back off and re-probe

    def _on_replay_sent(self, attempt: int, exc: Optional[BaseException]) -> None:
        if self._closed:
            return  # close() already freed and cleared _replay
        if exc is not None:
            if not isinstance(exc, self.transport.delivery_error):
                raise exc
            # still unreachable: back off and re-probe
            self._run_recovery(False, False, attempt)
            return
        self._replayed(*self._replay[0])
        self._replay_next(attempt)

    def _replayed(self, wire: bytes, nbytes: int, seq: Optional[int]) -> None:
        self._replay.pop(0)
        self.replayed.record()
        self._complete(wire, nbytes, seq, delivered=True)

    def _end_recovery(self, state: str) -> None:
        gate, self._pause_gate = self._pause_gate, None
        if gate is not None:
            gate.succeed()  # resume the parked sender
        self._set_state(state)

    def _backoff_delay(self, attempt: int) -> float:
        config = self.config
        delay = min(
            config.reconnect_max_s,
            config.reconnect_base_s * (config.reconnect_factor ** attempt),
        )
        if config.reconnect_jitter:
            # deterministic per-client jitter de-synchronises a fleet of
            # clients reconnecting after the same partition heals
            delay *= 1.0 + config.reconnect_jitter * (2.0 * self._rng.random() - 1.0)
        return max(delay, 1e-9)

    def __repr__(self) -> str:
        return (
            f"<CaptureClient {self.transport.name}:{self.topic} "
            f"on {self.device.name}>"
        )


def create_client(device, server, topic: str,
                  config: Optional[CaptureConfig] = None, **overrides):
    """Build a ready-to-``setup()`` capture client.

    ``server`` is the transport-specific endpoint (broker for MQTT-SN,
    CoAP server, HTTP collector).  ``overrides`` are
    :class:`CaptureConfig` field overrides applied on top of ``config``,
    so quick one-off variations read naturally::

        client = create_client(dev, broker, "provlight/edge/data",
                               transport="coap", group_size=10)
    """
    config = config or CaptureConfig()
    if overrides:
        config = config.with_(**overrides)
    return CaptureClient(device, server, topic, config)
