"""MQTT-SN broker in the style of Eclipse RSMB (Really Small Message
Broker), which the paper's ProvLight server embeds.

Event-driven over one UDP port, like RSMB's epoll loop, but without a
process: the broker is a one-shot socket callback
(:meth:`~repro.simkernel.Mailbox.on_item`).  The datagram
that wakes it takes up to ``max_batch - 1`` more already queued on the
socket, and the batch is charged one batched service time
(``broker_batch_fixed_s`` amortized over the batch plus
``broker_per_packet_s`` per datagram) on a timer; then it is dispatched,
its deliveries are flushed and the callback re-registers.  This creates
realistic queueing when 64 devices publish concurrently (paper
Table IX).  Routing uses an incrementally-maintained
:class:`~repro.mqttsn.topics.SubscriptionIndex` (exact hash map +
wildcard trie), so forwarding one PUBLISH costs O(topic segments)
regardless of session count; deliveries produced within a batch are
coalesced per subscriber so one batch emits grouped PUBLISHes under a
single retry timer instead of N interleaved send/retry cycles.

QoS 2 is honoured in both roles: as receiver from publishers
(PUBREC/PUBREL/PUBCOMP with duplicate suppression) and as sender towards
subscribers (retransmission with DUP until PUBREC, then PUBREL until
PUBCOMP).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..calibration import SERVER_COSTS
from ..net import Endpoint, Host, message_ids
from . import packets as pkt
from .topics import SubscriptionIndex, TopicRegistry

__all__ = ["MqttSnBroker", "DEFAULT_BROKER_PORT"]

DEFAULT_BROKER_PORT = 1883


@dataclass
class _Session:
    """Broker-side state for one connected client."""

    endpoint: Endpoint
    client_id: str
    inbound_qos2: Set[int] = field(default_factory=set)
    #: topic ids this client can resolve (REGACKed or learned via its own
    #: REGISTER/SUBSCRIBE); others need a broker-side REGISTER first.
    known_topic_ids: Set[int] = field(default_factory=set)
    msg_ids: Iterator[int] = field(default_factory=message_ids)


class _OutboundQos2:
    """Broker-as-sender exactly-once delivery state."""

    __slots__ = ("message", "dest", "state")

    def __init__(self, message: pkt.Publish, dest: Endpoint):
        self.message = message
        self.dest = dest
        self.state = "published"


class MqttSnBroker:
    """An MQTT-SN broker bound to one host/port.

    Standalone by default: binds its own UDP port and routes through its
    own :class:`SubscriptionIndex`.  A :class:`~repro.mqttsn.cluster.
    BrokerCluster` instead hands each shard a pre-bound socket facade, a
    routing index that replicates into the cluster's shared view, and a
    ``relay`` for deliveries owed to subscribers homed on other shards
    (``relay.stage()`` per forwarded PUBLISH, ``relay.flush()`` once per
    service batch so cross-shard deliveries coalesce like local ones).
    """

    def __init__(
        self,
        host: Host,
        port: int = DEFAULT_BROKER_PORT,
        service_time_s: float = SERVER_COSTS.broker_per_packet_s,
        batch_fixed_s: float = SERVER_COSTS.broker_batch_fixed_s,
        max_batch: int = 64,
        retry_interval_s: float = 1.0,
        max_retries: int = 5,
        *,
        sock=None,
        subscriptions: Optional[SubscriptionIndex] = None,
        relay=None,
    ):
        self.host = host
        self.env = host.env
        self.port = port
        self.service_time_s = service_time_s
        self.batch_fixed_s = batch_fixed_s
        self.max_batch = max(1, max_batch)
        self.retry_interval_s = retry_interval_s
        self.max_retries = max_retries
        self.relay = relay

        self.sock = sock if sock is not None else host.udp_socket(port)
        self.topics = TopicRegistry()
        self.sessions: Dict[Endpoint, _Session] = {}
        self.subscriptions = (
            subscriptions if subscriptions is not None else SubscriptionIndex()
        )
        self._outbound: Dict[Tuple[Endpoint, int], _OutboundQos2] = {}
        #: deliveries coalesced within the current service batch, grouped
        #: by the session that held the matching subscription (keyed by
        #: object identity — sessions replaced by a same-batch re-CONNECT
        #: keep their own group).  Flushing delivers every group with its
        #: own session's state, which matches the seed's dispatch-time
        #: delivery: the subscription was live when the PUBLISH arrived,
        #: so a later DISCONNECT in the same batch does not unsend it.
        self._batch_deliveries: Dict[
            int, Tuple[_Session, List[Tuple[str, pkt.Publish, int]]]
        ] = {}
        #: a standalone broker is shard 0; a cluster shard's socket
        #: carries its index
        labels = dict(host=host.name, port=port, shard=getattr(self.sock, "index", 0))
        metrics = self.env.metrics
        self.forwarded = metrics.counter("broker", "forwarded", **labels)
        self.dropped_no_session = metrics.counter("broker", "dropped_no_session", **labels)
        self.delivery_failures = metrics.counter("broker", "delivery_failures", **labels)
        self.serviced_batches = metrics.counter("broker", "serviced_batches", **labels)
        #: set by :meth:`crash`; retry timers, service timers and relay
        #: hops check it so a dead broker's leftover timers drain instead
        #: of sending through a closed socket
        self.crashed = False
        self.sock.on_item(self._on_datagram)

    @property
    def alive(self) -> bool:
        """True until the broker crashed (the liveness probe)."""
        return not self.crashed

    def crash(self) -> None:
        """Stop servicing (fault injection / failover testing).

        The broker object stays inspectable — sessions, counters, QoS
        state — but services nothing further: the socket closes, which
        drops its buffered datagrams and any pending wake, and a batch
        whose service time is still running is dropped unserviced.  A
        cluster's watchdog detects the dead shard via :attr:`alive` and
        fails it over.
        """
        if not self.crashed:
            self.crashed = True
            self.sock.close()

    # --------------------------------------------------------------- service
    def _on_datagram(self, datagram: Tuple[bytes, Endpoint]) -> None:
        # one service batch: this datagram plus whatever queued behind
        # it, charged one batched service time before it is dispatched
        batch = [datagram]
        if self.max_batch > 1:
            batch.extend(self.sock.drain(self.max_batch - 1))
        service = self.batch_fixed_s + self.service_time_s * len(batch)
        if service > 0:
            self.env.call_later(service, self._serve, batch)
        else:
            self._serve(batch)

    def _serve(self, batch: List[Tuple[bytes, Endpoint]]) -> None:
        if self.crashed:
            return  # crashed mid-service: the batch is lost
        self.serviced_batches.record(len(batch))
        for data, source in batch:
            try:
                message = pkt.decode(data)
            except pkt.MalformedPacket:
                continue
            self._dispatch(message, source)
        if self._batch_deliveries:
            self._flush_deliveries()
        if self.relay is not None:
            self.relay.flush(self)
        self.sock.on_item(self._on_datagram)

    def _send(self, message: pkt.MqttSnMessage, dest: Endpoint) -> None:
        self.sock.sendto(message.encode(), dest)

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, message: pkt.MqttSnMessage, source: Endpoint) -> None:
        kind = type(message)
        if kind is pkt.Connect:
            # a fresh CONNECT replaces any previous session state,
            # including its subscriptions in the routing index
            self.subscriptions.remove(source)
            self.sessions[source] = _Session(endpoint=source, client_id=message.client_id)
            self._send(pkt.Connack(pkt.RC_ACCEPTED), source)
            return

        session = self.sessions.get(source)
        if session is None:
            # Not connected: only CONNECT is acceptable. Everything else
            # is dropped (the RSMB behaviour for unknown peers).
            self.dropped_no_session.record()
            return
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self, message, source, session)

    def _on_register(self, message: pkt.Register, source: Endpoint,
                     session: _Session) -> None:
        try:
            topic_id = self.topics.register(message.topic_name)
        except ValueError:
            self._send(
                pkt.Regack(0, message.msg_id, pkt.RC_INVALID_TOPIC), source
            )
            return
        session.known_topic_ids.add(topic_id)
        self._send(pkt.Regack(topic_id, message.msg_id), source)

    def _on_regack(self, message: pkt.Regack, source: Endpoint,
                   session: _Session) -> None:
        # client acknowledged a broker-initiated topic registration
        if message.return_code == pkt.RC_ACCEPTED:
            session.known_topic_ids.add(message.topic_id)

    def _on_subscribe(self, message: pkt.Subscribe, source: Endpoint,
                      session: _Session) -> None:
        try:
            # add() validates the filter; one parse, one rejection path
            self.subscriptions.add(source, message.topic_name, message.qos)
        except ValueError:
            self._send(
                pkt.Suback(0, message.msg_id, pkt.RC_INVALID_TOPIC), source
            )
            return
        topic_id = 0
        if "+" not in message.topic_name and "#" not in message.topic_name:
            topic_id = self.topics.register(message.topic_name)
            session.known_topic_ids.add(topic_id)
        self._send(
            pkt.Suback(topic_id, message.msg_id, pkt.RC_ACCEPTED, message.qos),
            source,
        )

    def _on_pubrel(self, message: pkt.Pubrel, source: Endpoint,
                   session: _Session) -> None:
        session.inbound_qos2.discard(message.msg_id)
        self._send(pkt.Pubcomp(message.msg_id), source)

    def _on_pubrec(self, message: pkt.Pubrec, source: Endpoint,
                   session: _Session) -> None:
        out = self._outbound.get((source, message.msg_id))
        if out is not None:
            out.state = "pubrel"
        self._send(pkt.Pubrel(message.msg_id), source)

    def _on_delivered(self, message, source: Endpoint, session: _Session) -> None:
        """PUBCOMP (QoS 2) or PUBACK (QoS 1) ends a delivery."""
        self._outbound.pop((source, message.msg_id), None)

    def _on_pingreq(self, message: pkt.Pingreq, source: Endpoint,
                    session: _Session) -> None:
        self._send(pkt.Pingresp(), source)

    def _on_disconnect(self, message: pkt.Disconnect, source: Endpoint,
                       session: _Session) -> None:
        self._send(pkt.Disconnect(), source)
        self.subscriptions.remove(source)
        self.sessions.pop(source, None)

    # ------------------------------------------------------------- publishing
    def _on_publish(self, message: pkt.Publish, source: Endpoint,
                    session: _Session) -> None:
        if message.qos == 1:
            self._send(pkt.Puback(message.topic_id, message.msg_id), source)
        elif message.qos == 2:
            self._send(pkt.Pubrec(message.msg_id), source)
            if message.msg_id in session.inbound_qos2:
                return  # duplicate: exactly-once suppression
            session.inbound_qos2.add(message.msg_id)

        topic_name = self.topics.name_of(message.topic_id)
        if topic_name is None:
            return  # unknown topic id: RSMB drops the message
        self._forward(topic_name, message)

    def _forward(self, topic_name: str, message: pkt.Publish) -> None:
        """Route one PUBLISH through the subscription index.

        Deliveries are only *staged* here; :meth:`_serve` flushes them
        grouped per subscriber once the whole batch has been dispatched.
        """
        if self.relay is not None:
            # cluster mode: one match over the shared routing view covers
            # local and remote subscribers alike (the local index is a
            # strict subset, so matching both would double the hot-path
            # work); the relay stages local deliveries back through
            # _stage_delivery and buffers the rest for its batch flush
            self.relay.route(self, topic_name, message)
            return
        for endpoint, sub_qos in self.subscriptions.match(topic_name):
            session = self.sessions.get(endpoint)
            if session is None:
                continue
            self._stage_delivery(session, topic_name, message, min(message.qos, sub_qos))

    def _stage_delivery(
        self, session: _Session, topic_name: str, message: pkt.Publish, qos: int
    ) -> None:
        """Queue one delivery for the current batch's coalesced flush."""
        staged = self._batch_deliveries
        entry = staged.get(id(session))
        if entry is None:
            entry = (session, [])
            staged[id(session)] = entry
        entry[1].append((topic_name, message, qos))

    def _flush_deliveries(self) -> None:
        """Emit the batch's staged deliveries, grouped per subscriber."""
        staged = self._batch_deliveries
        self._batch_deliveries = {}
        for session, deliveries in staged.values():
            tracked: List[int] = []
            registered: Set[int] = set()
            for topic_name, message, qos in deliveries:
                msg_id = self._deliver(session, topic_name, message, qos, registered)
                if msg_id:
                    tracked.append(msg_id)
            if tracked:
                # one retry timer covers the whole coalesced group
                self.env.call_later(
                    self.retry_interval_s,
                    self._retry_outbound, session.endpoint, tracked, 0,
                )

    def _deliver(
        self,
        session: _Session,
        topic_name: str,
        message: pkt.Publish,
        qos: int,
        registered: Set[int],
    ) -> int:
        """Send one PUBLISH towards ``session``; returns the msg id the
        grouped retry timer must track (0 for QoS 0).

        ``registered`` collects the topic ids already REGISTERed within
        the current flush group — the REGACK cannot arrive mid-flush, so
        one REGISTER per unresolved topic per group is enough."""
        topic_id = self.topics.register(topic_name)
        if topic_id not in session.known_topic_ids and topic_id not in registered:
            registered.add(topic_id)
            # Wildcard subscribers cannot resolve this topic id yet: send a
            # broker-initiated REGISTER (spec §6.10) ahead of the PUBLISH.
            # Repeated until the client REGACKs, so a lost REGISTER only
            # costs the duplicate-suppressed retransmission round.
            self._send(
                pkt.Register(topic_id, next(session.msg_ids), topic_name),
                session.endpoint,
            )
        msg_id = next(session.msg_ids) if qos > 0 else 0
        out_message = pkt.Publish(topic_id, msg_id, message.payload, qos)
        self.forwarded.record(len(message.payload))
        self._send(out_message, session.endpoint)
        if qos > 0:
            out = _OutboundQos2(out_message, session.endpoint)
            self._outbound[(session.endpoint, msg_id)] = out
        return msg_id

    def _retry_outbound(self, dest: Endpoint, msg_ids: List[int], attempt: int) -> None:
        """Retry timer for one coalesced delivery group towards ``dest``,
        fired ``retry_interval_s`` after each send."""
        if self.crashed:
            return  # broker died with the timer armed; nothing to retry
        outstanding = [m for m in msg_ids if (dest, m) in self._outbound]
        if not outstanding:
            return
        if attempt >= self.max_retries:
            for msg_id in outstanding:
                del self._outbound[(dest, msg_id)]
                self.delivery_failures.record()
            return  # subscriber unreachable: give up, counted above
        for msg_id in outstanding:
            out = self._outbound[(dest, msg_id)]
            if out.state == "pubrel":
                self._send(pkt.Pubrel(msg_id), dest)
            else:
                out.message.dup = True
                self._send(out.message, dest)
        self.env.call_later(
            self.retry_interval_s, self._retry_outbound, dest, outstanding, attempt + 1
        )

    def __repr__(self) -> str:
        return f"<MqttSnBroker {self.host.name}:{self.port} sessions={len(self.sessions)}>"


#: message type from a connected client -> its handler (CONNECT, which
#: needs no session, is handled before the lookup)
_HANDLERS = {
    pkt.Register: MqttSnBroker._on_register,
    pkt.Regack: MqttSnBroker._on_regack,
    pkt.Subscribe: MqttSnBroker._on_subscribe,
    pkt.Publish: MqttSnBroker._on_publish,
    pkt.Pubrel: MqttSnBroker._on_pubrel,
    pkt.Pubrec: MqttSnBroker._on_pubrec,
    pkt.Pubcomp: MqttSnBroker._on_delivered,
    pkt.Puback: MqttSnBroker._on_delivered,
    pkt.Pingreq: MqttSnBroker._on_pingreq,
    pkt.Disconnect: MqttSnBroker._on_disconnect,
}
