"""MQTT-SN client: connection, registration, QoS 0/1/2 publish, subscribe.

The client mirrors the Python MQTT-SN library the paper's prototype uses:
a UDP socket, a receive loop matching acknowledgements to in-flight
message ids, and timer-based retransmission (DUP flag) since UDP may drop
datagrams.

Two publish entry points matter for ProvLight:

* :meth:`publish` — generator completing when the QoS contract is done
  (QoS 2: after PUBCOMP);
* :meth:`publish_nowait` — enqueue-and-return; the QoS machinery runs in
  the client's receive loop.  This is what keeps capture off the
  workflow's critical path.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..net import Endpoint, Host
from . import packets as pkt
from .topics import topic_matches

__all__ = ["MqttSnClient", "MqttSnTimeout", "MessageHandler"]

MessageHandler = Callable[[str, bytes], None]


class MqttSnTimeout(pkt.MqttSnError):
    """An acknowledged exchange exceeded its retransmission budget."""


class _Pending:
    """One in-flight exchange awaiting a broker acknowledgement."""

    __slots__ = ("kind", "event", "message", "state")

    def __init__(self, kind: str, event, message: pkt.MqttSnMessage):
        self.kind = kind
        self.event = event
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
        self._msg_ids = itertools.cycle(range(1, 0x10000))
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
        self.env.process(self._recv_loop(), name=f"mqttsn-client-{client_id}")

    # ------------------------------------------------------------------ ops
    def connect(self):
        """Generator: CONNECT / CONNACK exchange (use ``yield from``)."""
        message = pkt.Connect(client_id=self.client_id)
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
        message = pkt.Register(topic_id=0, msg_id=msg_id, topic_name=topic_name)
        regack = yield from self._tracked_exchange("register", msg_id, message)
        self._topic_names[regack.topic_id] = topic_name
        return regack.topic_id

    def subscribe(self, topic_filter: str, handler: MessageHandler, qos: int = 2):
        """Generator: SUBSCRIBE / SUBACK; registers ``handler`` for
        messages whose topic matches ``topic_filter``."""
        msg_id = next(self._msg_ids)
        message = pkt.Subscribe(msg_id=msg_id, topic_name=topic_filter, qos=qos)
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
        done = self.publish_nowait(topic_id, payload, qos)
        result = yield done
        return result

    def publish_nowait(self, topic_id: int, payload: bytes, qos: int = 2):
        """Send a PUBLISH; returns the completion event without waiting.

        QoS 0 events complete immediately; QoS 1 on PUBACK; QoS 2 on
        PUBCOMP.  The exchange (including retransmissions) is driven by
        the receive loop, off the caller's critical path.
        """
        if not self.connected:
            raise pkt.MqttSnError("publish before connect")
        msg_id = next(self._msg_ids) if qos > 0 else 0
        message = pkt.Publish(topic_id=topic_id, msg_id=msg_id, payload=payload, qos=qos)
        self.published_count += 1
        if qos == 0:
            self._send(message)
            done = self.env.event()
            done.succeed(None)
            return done
        kind = "publish"
        done = self.env.event()
        pending = _Pending(kind, done, message)
        self._pending[(kind, msg_id)] = pending
        self._send(message)
        self.env.call_later(self.retry_interval_s, self._retry_pending, kind, msg_id, 0)
        return done

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
            pending.event.fail(MqttSnTimeout(f"{kind} #{msg_id} timed out"))
            return
        message = pending.message
        if pending.state == "pubrel":
            self._send(pkt.Pubrel(msg_id=msg_id))
        else:
            if isinstance(message, pkt.Publish):
                message.dup = True
            self._send(message)
        self.env.call_later(
            self.retry_interval_s, self._retry_pending, kind, msg_id, attempt + 1
        )

    def _recv_loop(self):
        while True:
            data, source = yield self.sock.recv()
            try:
                message = pkt.decode(data)
            except pkt.MalformedPacket:
                continue
            self._dispatch(message)

    def _dispatch(self, message: pkt.MqttSnMessage) -> None:
        if isinstance(message, pkt.Connack):
            if self._connect_event is not None and not self._connect_event.triggered:
                if message.return_code == pkt.RC_ACCEPTED:
                    self._connect_event.succeed(message)
                else:
                    self._connect_event.fail(
                        pkt.MqttSnError(f"CONNECT rejected: {message.return_code}")
                    )
            return
        if isinstance(message, pkt.Regack):
            self._complete(("register", message.msg_id), message)
            return
        if isinstance(message, pkt.Suback):
            self._complete(("subscribe", message.msg_id), message)
            return
        if isinstance(message, pkt.Puback):
            self._complete(("publish", message.msg_id), message)
            return
        if isinstance(message, pkt.Pubrec):
            pending = self._pending.get(("publish", message.msg_id))
            if pending is not None:
                pending.state = "pubrel"
            self._send(pkt.Pubrel(msg_id=message.msg_id))
            return
        if isinstance(message, pkt.Pubcomp):
            self._complete(("publish", message.msg_id), message)
            return
        if isinstance(message, pkt.Publish):
            self._on_inbound_publish(message)
            return
        if isinstance(message, pkt.Pubrel):
            self._inbound_qos2.discard(message.msg_id)
            self._send(pkt.Pubcomp(msg_id=message.msg_id))
            return
        if isinstance(message, pkt.Register):
            # broker informs the topic mapping for wildcard subscriptions
            self._topic_names[message.topic_id] = message.topic_name
            self._send(pkt.Regack(topic_id=message.topic_id, msg_id=message.msg_id))
            return
        if isinstance(message, pkt.Pingresp):
            if self._ping_event is not None and not self._ping_event.triggered:
                self._ping_event.succeed()
            return
        if isinstance(message, pkt.Pingreq):
            self._send(pkt.Pingresp())
            return
        # CONNECT/SUBSCRIBE/etc. are not expected at a client: ignore.

    def _complete(self, key: Tuple[str, int], message) -> None:
        pending = self._pending.pop(key, None)
        if pending is not None and not pending.event.triggered:
            pending.event.succeed(message)

    def _on_inbound_publish(self, message: pkt.Publish) -> None:
        if message.qos == 1:
            self._send(pkt.Puback(topic_id=message.topic_id, msg_id=message.msg_id))
        elif message.qos == 2:
            self._send(pkt.Pubrec(msg_id=message.msg_id))
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
