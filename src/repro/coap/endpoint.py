"""CoAP client and server over simulated UDP.

Implements the RFC 7252 messaging layer: confirmable requests with
exponential-backoff retransmission, ACKs with piggybacked responses,
non-confirmable fire-and-forget, and message-id deduplication on the
server.  Both ends receive through a one-shot socket callback that
re-registers after each datagram, not through a process; the server
charges its per-request service time on a timer.

A handler answers through the ``reply`` it is given, at once or later
(deferred): the piggy-backed ACK leaves when it is called.  A
retransmitted CON whose first copy is still being handled is neither
dispatched again nor answered; once answered, a retransmission gets the
cached response code again.  The client fails a CON answered with a
server error (5.xx) with :class:`CoapServerError`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

from ..net import Endpoint, Host, message_ids
from ..simkernel import Event
from .messages import (
    CODE_CHANGED,
    CODE_EMPTY,
    CODE_NOT_FOUND,
    CODE_POST,
    TYPE_ACK,
    TYPE_CON,
    TYPE_NON,
    TYPE_RST,
    CoapError,
    CoapMessage,
    code_str,
)

__all__ = ["CoapClient", "CoapServer", "CoapServerError", "CoapTimeout", "DEFAULT_COAP_PORT"]

DEFAULT_COAP_PORT = 5683

# RFC 7252 transmission parameters (ACK_RANDOM_FACTOR folded in)
ACK_TIMEOUT_S = 2.0
MAX_RETRANSMIT = 4


class CoapTimeout(ConnectionError):
    """A confirmable exchange exhausted its retransmissions."""


class CoapServerError(ConnectionError):
    """The server answered a confirmable request with a 5.xx code."""


#: ``reply(code, payload=b"")``: answer the request, once
Reply = Callable[..., None]
#: handler: (path segments, payload, reply) -> None; calls ``reply`` now
#: or later
RequestHandler = Callable[[Tuple[str, ...], bytes, Reply], None]


class CoapServer:
    """A CoAP server with per-path handlers and MID deduplication."""

    def __init__(self, host: Host, port: int = DEFAULT_COAP_PORT,
                 service_time_s: float = 0.0005):
        self.host = host
        self.env = host.env
        self.sock = host.udp_socket(port)
        self.port = port
        self.service_time_s = service_time_s
        self._handlers: Dict[Tuple[str, ...], RequestHandler] = {}
        #: dedup cache: (source, mid) -> response code, None while the
        #: handler has not replied yet
        self._seen: Dict[Tuple[Endpoint, int], Optional[int]] = {}
        metrics = self.env.metrics
        self.requests = metrics.counter("coap", "requests", host=host.name, port=port)
        self.duplicates = metrics.counter("coap", "duplicates", host=host.name, port=port)
        self.sock.on_item(self._on_datagram)

    def route(self, path: str, handler: RequestHandler) -> None:
        """Register a handler for an absolute path like ``"/prov/edge"``."""
        key = tuple(seg for seg in path.split("/") if seg)
        self._handlers[key] = handler

    def _on_datagram(self, datagram: Tuple[bytes, Endpoint]) -> None:
        data, source = datagram
        if self.service_time_s > 0:
            self.env.call_later(self.service_time_s, self._serve, data, source)
        else:
            self._serve(data, source)

    def _serve(self, data: bytes, source: Endpoint) -> None:
        try:
            message = CoapMessage.decode(data)
        except CoapError:
            pass
        else:
            self._dispatch(message, source)
        self.sock.on_item(self._on_datagram)

    def _dispatch(self, message: CoapMessage, source: Endpoint) -> None:
        if message.mtype not in (TYPE_CON, TYPE_NON):
            return  # stray ACK/RST at a server: ignore
        dedup_key = (source, message.message_id)
        if dedup_key in self._seen:
            self.duplicates.record()
            code = self._seen[dedup_key]
            if message.mtype == TYPE_CON and code is not None:
                # re-ACK with the cached response code
                self._reply(message, source, code, b"")
            return
        self._seen[dedup_key] = None  # being handled
        self.requests.record(len(message.payload))
        reply = partial(self._answer, message, source, dedup_key)
        path = tuple(message.uri_path)
        handler = self._handlers.get(path)
        if handler is None:
            reply(CODE_NOT_FOUND)
        else:
            handler(path, message.payload, reply)

    def _answer(self, request: CoapMessage, source: Endpoint, dedup_key,
                code: int, payload: bytes = b"") -> None:
        """The handler's ``reply``: cache ``code`` for retransmissions,
        and ACK a CON."""
        self._seen[dedup_key] = code
        if request.mtype == TYPE_CON:
            self._reply(request, source, code, payload)

    def _reply(self, request: CoapMessage, source: Endpoint, code: int,
               payload: bytes) -> None:
        ack = CoapMessage(
            mtype=TYPE_ACK, code=code, message_id=request.message_id,
            token=request.token, payload=payload,
        )
        self.sock.sendto(ack.encode(), source)


class CoapClient:
    """A CoAP client bound to one host."""

    def __init__(self, host: Host, server: Endpoint,
                 ack_timeout_s: float = ACK_TIMEOUT_S,
                 max_retransmit: int = MAX_RETRANSMIT):
        self.host = host
        self.env = host.env
        self.server = server
        self.sock = host.udp_socket()
        self.ack_timeout_s = ack_timeout_s
        self.max_retransmit = max_retransmit
        self._mids = message_ids()
        #: mid -> the event a :meth:`post` waits on, or the ``on_done``
        #: callback of a :meth:`post_nowait`
        self._pending: Dict[int, object] = {}
        self.posts = self.env.metrics.counter("coap", "posts", host=host.name)
        self.sock.on_item(self._on_datagram)

    def _on_datagram(self, datagram: Tuple[bytes, Endpoint]) -> None:
        try:
            message = CoapMessage.decode(datagram[0])
        except CoapError:
            pass
        else:
            self._on_reply(message)
        self.sock.on_item(self._on_datagram)

    def _on_reply(self, message: CoapMessage) -> None:
        if message.mtype not in (TYPE_ACK, TYPE_RST):
            return
        done = self._pending.pop(message.message_id, None)
        if done is None:
            return
        if message.mtype == TYPE_RST:
            self._settle(done, ConnectionError("connection reset (RST)"))
        elif message.code >> 5 == 5:
            self._settle(done, CoapServerError(
                f"CON {message.message_id} answered {code_str(message.code)}"))
        else:
            self._settle(done, None, message)

    def _settle(self, done, exc: Optional[BaseException], message=None) -> None:
        """End an exchange from the socket callback or a retransmission
        timer, as its last action: trigger the event a :meth:`post` waits
        on, or call ``on_done(exc)`` — in place when it would be the very
        next kernel step, else on a zero-delay timer in the event's slot
        (see :meth:`repro.mqttsn.MqttSnClient._settle`)."""
        if type(done) is Event:
            if exc is None:
                done.succeed(message)
            else:
                done.fail(exc)
        elif not self.sock.items and self.env.zero_delay_is_next():
            done(exc)
        else:
            self.env.call_later(0.0, done, exc)

    def post(self, path: str, payload: bytes, confirmable: bool = True):
        """Generator: POST ``payload``; returns the ACK message (or None
        for non-confirmable)."""
        if not confirmable:
            request = self._request(TYPE_NON, path, payload)
            self.sock.sendto(request.encode(), self.server)
            return None
        done = self.env.event()
        self._post(path, payload, done)
        response = yield done
        return response

    def post_nowait(self, path: str, payload: bytes,
                    on_done: Callable[[Optional[BaseException]], None]) -> None:
        """Confirmable POST without waiting (the async capture path):
        ``on_done(None)`` once the ACK arrives, ``on_done(exc)`` on a
        reset, a 5.xx answer or spent retransmissions.  The exchange runs
        in the socket callback and on retransmission timers."""
        self._post(path, payload, on_done)

    def _request(self, mtype: int, path: str, payload: bytes) -> CoapMessage:
        self.posts.record(len(payload))
        return CoapMessage(
            mtype=mtype, code=CODE_POST, message_id=next(self._mids),
            uri_path=[seg for seg in path.split("/") if seg],
            content_format=42, payload=payload,
        )

    def _post(self, path: str, payload: bytes, done) -> None:
        request = self._request(TYPE_CON, path, payload)
        mid = request.message_id
        self._pending[mid] = done
        self.sock.sendto(request.encode(), self.server)
        self.env.call_later(self.ack_timeout_s, self._retransmit, request, mid, 0)

    def _retransmit(self, request: CoapMessage, mid: int, attempt: int) -> None:
        """CON watchdog, fired ``ack_timeout_s * 2**attempt`` after each
        send."""
        done = self._pending.get(mid)
        if done is None:
            return
        if attempt >= self.max_retransmit:
            del self._pending[mid]
            self._settle(done, CoapTimeout(f"CON {mid} exhausted retransmissions"))
            return
        self.sock.sendto(request.encode(), self.server)
        self.env.call_later(
            self.ack_timeout_s * (2 ** (attempt + 1)),
            self._retransmit, request, mid, attempt + 1,
        )
