"""MQTT-SN client: connection, registration, QoS 0/1/2 publish, subscribe.

The client mirrors the Python MQTT-SN library the paper's prototype uses:
a UDP socket, a socket callback matching acknowledgements to in-flight
message ids, and timer-based retransmission (DUP flag) since UDP may drop
datagrams.  No process waits on the socket: each datagram runs
:meth:`MqttSnClient._on_datagram`, which re-registers itself.

Two publish entry points matter for ProvLight:

* :meth:`publish` — generator completing when the QoS contract is done
  (QoS 2: after PUBCOMP);
* :meth:`publish_nowait` — send-and-return, with an ``on_done``
  callback; the QoS machinery runs in the client's socket callback.
  This is what keeps capture off the workflow's critical path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..simkernel import Event

from ..net import Endpoint, Host, message_ids
from . import packets as pkt
from .topics import topic_matches

__all__ = ["MqttSnClient", "MqttSnTimeout", "MessageHandler"]

MessageHandler = Callable[[str, bytes], None]
#: ``on_done(None)`` on delivery, ``on_done(exc)`` once retries are spent
DoneCallback = Callable[[Optional[BaseException]], None]


class MqttSnTimeout(pkt.MqttSnError):
    """An acknowledged exchange exceeded its retransmission budget."""


class _Pending:
    """One in-flight exchange awaiting a broker acknowledgement.

    ``done`` is the event a generator waits on, or the ``on_done``
    callback of :meth:`MqttSnClient.publish_nowait` (None: nobody is
    told)."""

    __slots__ = ("kind", "done", "message", "state")

    def __init__(self, kind: str, done, message: pkt.MqttSnMessage):
        self.kind = kind
        self.done = done
        self.message = message
        self.state = "sent"


class MqttSnClient:
    """An MQTT-SN client bound to one host."""

    def __init__(
        self,
        host: Host,
        client_id: str,
        broker: Endpoint,
        retry_interval_s: float = 1.0,
        max_retries: int = 5,
    ):
        self.host = host
        self.env = host.env
        self.client_id = client_id
        self.broker = broker
        self.retry_interval_s = retry_interval_s
        self.max_retries = max_retries

        self.sock = host.udp_socket()
        self.connected = False
        self._msg_ids = message_ids()
        self._pending: Dict[Tuple[str, int], _Pending] = {}
        self._connect_event = None
        self._ping_event = None
        self._inbound_qos2: set = set()
        self._topic_names: Dict[int, str] = {}
        #: wildcard-free filters dispatch by dict lookup; only filters
        #: with +/# pay a topic_matches scan per inbound PUBLISH (a pool
        #: worker holding hundreds of exact device topics stays O(1))
        self._exact_handlers: Dict[str, List[MessageHandler]] = {}
        self._wildcard_subs: List[Tuple[str, MessageHandler]] = []
        self.published_count = 0
        self.received_count = 0
        self.sock.on_item(self._on_datagram)

    # ------------------------------------------------------------------ ops
    def connect(self):
        """Generator: CONNECT / CONNACK exchange (use ``yield from``)."""
        message = pkt.Connect(self.client_id)
        self._connect_event = self.env.event()
        self._send(message)
        self.env.call_later(self.retry_interval_s, self._retry_connect, message, 0)
        yield self._connect_event
        self.connected = True
        return self

    def _retry_connect(self, message, attempt):
        """CONNECT watchdog, fired ``retry_interval_s`` after each send."""
        if self._connect_event is not None and not self._connect_event.triggered:
            if attempt >= self.max_retries:
                self._connect_event.fail(MqttSnTimeout("CONNECT timed out"))
            else:
                self._send(message)
                self.env.call_later(
                    self.retry_interval_s, self._retry_connect, message, attempt + 1
                )

    def register(self, topic_name: str):
        """Generator: REGISTER / REGACK; returns the broker's topic id."""
        msg_id = next(self._msg_ids)
        message = pkt.Register(0, msg_id, topic_name)
        regack = yield from self._tracked_exchange("register", msg_id, message)
        self._topic_names[regack.topic_id] = topic_name
        return regack.topic_id

    def subscribe(self, topic_filter: str, handler: MessageHandler, qos: int = 2):
        """Generator: SUBSCRIBE / SUBACK; registers ``handler`` for
        messages whose topic matches ``topic_filter``."""
        msg_id = next(self._msg_ids)
        message = pkt.Subscribe(msg_id, topic_filter, qos)
        suback = yield from self._tracked_exchange("subscribe", msg_id, message)
        if suback.topic_id:
            self._topic_names[suback.topic_id] = topic_filter
        self.bind_filter(topic_filter, handler)
        return suback.topic_id

    def bind_filter(self, topic_filter: str, handler: MessageHandler) -> None:
        """Bind ``handler`` for inbound PUBLISHes matching ``topic_filter``
        without any wire exchange.

        The client-side half of a control-plane subscription handover
        (``BrokerCluster.move_subscription``): the broker's routing index
        flips the filter to this client's session atomically, and the
        receiving client rebinds its local dispatch to match.  Normal
        subscriptions go through :meth:`subscribe`, which performs the
        SUBSCRIBE/SUBACK exchange and then calls this.
        """
        if "+" in topic_filter or "#" in topic_filter:
            self._wildcard_subs.append((topic_filter, handler))
        else:
            self._exact_handlers.setdefault(topic_filter, []).append(handler)

    def unbind_filter(
        self, topic_filter: str, handler: Optional[MessageHandler] = None
    ) -> None:
        """Remove handlers bound to ``topic_filter`` (all when ``handler``
        is None) — local only, the broker-side subscription is untouched."""
        if "+" in topic_filter or "#" in topic_filter:
            self._wildcard_subs = [
                (pattern, bound)
                for pattern, bound in self._wildcard_subs
                if not (pattern == topic_filter
                        and (handler is None or bound is handler))
            ]
            return
        handlers = self._exact_handlers.get(topic_filter)
        if handlers is None:
            return
        if handler is None:
            del self._exact_handlers[topic_filter]
            return
        try:
            handlers.remove(handler)
        except ValueError:
            return
        if not handlers:
            del self._exact_handlers[topic_filter]

    def publish(self, topic_id: int, payload: bytes, qos: int = 2):
        """Generator completing when the QoS contract is fulfilled."""
        done = self.env.event()
        self._publish(topic_id, payload, qos, done)
        result = yield done
        return result

    def publish_nowait(self, topic_id: int, payload: bytes, qos: int = 2,
                       on_done: Optional[DoneCallback] = None) -> None:
        """Send a PUBLISH without waiting.

        ``on_done(None)`` runs once the QoS contract is fulfilled (QoS 0:
        at once; QoS 1: PUBACK; QoS 2: PUBCOMP), ``on_done(exc)`` once its
        retransmissions are spent, each on a zero-delay timer in the slot
        a completion event would take.  The exchange is driven by the
        socket callback, off the caller's critical path.
        """
        self._publish(topic_id, payload, qos, on_done)

    def _publish(self, topic_id: int, payload: bytes, qos: int, done) -> None:
        if not self.connected:
            raise pkt.MqttSnError("publish before connect")
        msg_id = next(self._msg_ids) if qos > 0 else 0
        message = pkt.Publish(topic_id, msg_id, payload, qos)
        self.published_count += 1
        if qos == 0:
            self._send(message)
            if type(done) is Event:
                done.succeed(None)
            elif done is not None:
                self.env.call_later(0.0, done, None)
            return
        kind = "publish"
        self._pending[(kind, msg_id)] = _Pending(kind, done, message)
        self._send(message)
        self.env.call_later(self.retry_interval_s, self._retry_pending, kind, msg_id, 0)

    def ping(self):
        """Generator: PINGREQ / PINGRESP round trip."""
        self._ping_event = self.env.event()
        self._send(pkt.Pingreq())
        yield self._ping_event

    def disconnect(self) -> None:
        """Send DISCONNECT and stop (fire and forget, per spec)."""
        if self.connected:
            self._send(pkt.Disconnect())
            self.connected = False

    # ---------------------------------------------------------------- internals
    def _send(self, message: pkt.MqttSnMessage) -> None:
        self.sock.sendto(message.encode(), self.broker)

    def _tracked_exchange(self, kind: str, msg_id: int, message):
        done = self.env.event()
        self._pending[(kind, msg_id)] = _Pending(kind, done, message)
        self._send(message)
        self.env.call_later(self.retry_interval_s, self._retry_pending, kind, msg_id, 0)
        reply = yield done
        return reply

    def _retry_pending(self, kind: str, msg_id: int, attempt: int) -> None:
        """Retransmission watchdog for one tracked exchange, fired
        ``retry_interval_s`` after each send."""
        pending = self._pending.get((kind, msg_id))
        if pending is None:
            return
        if attempt >= self.max_retries:
            del self._pending[(kind, msg_id)]
            self._settle(pending.done, MqttSnTimeout(f"{kind} #{msg_id} timed out"))
            return
        message = pending.message
        if pending.state == "pubrel":
            self._send(pkt.Pubrel(msg_id))
        else:
            if isinstance(message, pkt.Publish):
                message.dup = True
            self._send(message)
        self.env.call_later(
            self.retry_interval_s, self._retry_pending, kind, msg_id, attempt + 1
        )

    def _on_datagram(self, datagram: Tuple[bytes, Endpoint]) -> None:
        try:
            message = pkt.decode(datagram[0])
        except pkt.MalformedPacket:
            pass
        else:
            self._dispatch(message)
        self.sock.on_item(self._on_datagram)

    def _dispatch(self, message: pkt.MqttSnMessage) -> None:
        handler = _HANDLERS.get(type(message))
        if handler is not None:
            handler(self, message)
        # CONNECT/SUBSCRIBE/etc. are not expected at a client: ignore.

    def _on_connack(self, message: pkt.Connack) -> None:
        if self._connect_event is not None and not self._connect_event.triggered:
            if message.return_code == pkt.RC_ACCEPTED:
                self._connect_event.succeed(message)
            else:
                self._connect_event.fail(
                    pkt.MqttSnError(f"CONNECT rejected: {message.return_code}")
                )

    def _on_regack(self, message: pkt.Regack) -> None:
        self._complete(("register", message.msg_id), message)

    def _on_suback(self, message: pkt.Suback) -> None:
        self._complete(("subscribe", message.msg_id), message)

    def _on_publish_done(self, message) -> None:
        """PUBACK (QoS 1) or PUBCOMP (QoS 2) ends a publish."""
        self._complete(("publish", message.msg_id), message)

    def _on_pubrec(self, message: pkt.Pubrec) -> None:
        pending = self._pending.get(("publish", message.msg_id))
        if pending is not None:
            pending.state = "pubrel"
        self._send(pkt.Pubrel(message.msg_id))

    def _on_pubrel(self, message: pkt.Pubrel) -> None:
        self._inbound_qos2.discard(message.msg_id)
        self._send(pkt.Pubcomp(message.msg_id))

    def _on_register(self, message: pkt.Register) -> None:
        # broker informs the topic mapping for wildcard subscriptions
        self._topic_names[message.topic_id] = message.topic_name
        self._send(pkt.Regack(message.topic_id, message.msg_id))

    def _on_pingresp(self, message: pkt.Pingresp) -> None:
        if self._ping_event is not None and not self._ping_event.triggered:
            self._ping_event.succeed()

    def _on_pingreq(self, message: pkt.Pingreq) -> None:
        self._send(pkt.Pingresp())

    def _complete(self, key: Tuple[str, int], message) -> None:
        pending = self._pending.pop(key, None)
        if pending is not None:
            self._settle(pending.done, None, message)

    def _settle(self, done, exc: Optional[BaseException], message=None) -> None:
        """End an exchange from a socket callback or a retry timer, as
        its last action: trigger the event a generator waits on, or call
        ``on_done(exc)``.  ``on_done`` runs in place when it would be the
        very next kernel step (the socket callback re-registers on an
        empty buffer, which schedules nothing), and otherwise on a
        zero-delay timer, in the slot the event would take."""
        if type(done) is Event:
            if exc is None:
                done.succeed(message)
            else:
                done.fail(exc)
        elif done is not None:
            if not self.sock.items and self.env.zero_delay_is_next():
                done(exc)
            else:
                self.env.call_later(0.0, done, exc)

    def _on_inbound_publish(self, message: pkt.Publish) -> None:
        if message.qos == 1:
            self._send(pkt.Puback(message.topic_id, message.msg_id))
        elif message.qos == 2:
            self._send(pkt.Pubrec(message.msg_id))
            if message.msg_id in self._inbound_qos2:
                return  # duplicate of an unreleased exactly-once message
            self._inbound_qos2.add(message.msg_id)
        topic = self._topic_names.get(message.topic_id, f"?{message.topic_id}")
        self.received_count += 1
        for handler in self._exact_handlers.get(topic, ()):
            handler(topic, message.payload)
        for pattern, handler in self._wildcard_subs:
            if topic_matches(pattern, topic):
                handler(topic, message.payload)

    def __repr__(self) -> str:
        return f"<MqttSnClient {self.client_id}@{self.host.name}>"


#: inbound message type -> its handler (one lookup per datagram)
_HANDLERS = {
    pkt.Connack: MqttSnClient._on_connack,
    pkt.Regack: MqttSnClient._on_regack,
    pkt.Suback: MqttSnClient._on_suback,
    pkt.Puback: MqttSnClient._on_publish_done,
    pkt.Pubrec: MqttSnClient._on_pubrec,
    pkt.Pubcomp: MqttSnClient._on_publish_done,
    pkt.Publish: MqttSnClient._on_inbound_publish,
    pkt.Pubrel: MqttSnClient._on_pubrel,
    pkt.Register: MqttSnClient._on_register,
    pkt.Pingresp: MqttSnClient._on_pingresp,
    pkt.Pingreq: MqttSnClient._on_pingreq,
}
