"""Blocking HTTP/1.1 client with keep-alive sessions.

Mirrors how the ProvLake/DfAnalyzer capture libraries use ``requests``:
one session per library instance, connection reused across POSTs, and a
fully synchronous request/response cycle — the caller is blocked for
(client serialization +) transmission + server service + response, which
is exactly the overhead mechanism paper Section III measures.

A request waits for its response under a watchdog: one heap timer per
pooled connection, armed by the first request while none is running and
never cancelled, like the TCP retransmission timer.  When it fires it
goes idle if no request is waiting.  It restarts while TCP is still
delivering the request (sent bytes unacked) and on progress since it
was armed (request bytes acked or response bytes received), so TCP's
own retransmission limit, and the redial after it, stay in charge of a
request the server has not got yet.  Otherwise the request was
delivered and no response byte came for a whole deadline: the watchdog
presumes the response lost, aborts the connection, and the waiting
request raises :class:`HttpRequestError`.  So a response lost for good
(the collector ingested the POST, then the path died before the
response got out) ends a request within two
:attr:`HttpSession.RESPONSE_TIMEOUT_S` of its delivery, instead of never.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..net import ConnectionRefused, Endpoint, Host
from .messages import ConnectionClosed, HttpError, HttpRequest, read_response

__all__ = ["HttpSession", "HttpRequestError"]


class HttpRequestError(ConnectionError):
    """The request could not be completed."""


class _Pooled:
    """One pooled keep-alive connection and its response watchdog."""

    __slots__ = ("conn", "buf", "waiting", "armed", "expired")

    def __init__(self, conn):
        self.conn = conn
        self.buf = b""  # received and not yet read as a response
        self.waiting = False  # a request awaits its response
        self.armed = False  # a watchdog timer is on the heap
        self.expired = False  # the watchdog aborted the connection


class HttpSession:
    """A keep-alive HTTP client bound to one host."""

    #: sim seconds a delivered request may wait with no progress on its
    #: connection before the watchdog aborts it
    RESPONSE_TIMEOUT_S = 120.0

    def __init__(self, host: Host, user_agent: str = "repro-requests/1.0"):
        self.host = host
        self.env = host.env
        self.user_agent = user_agent
        self._conns: Dict[Endpoint, _Pooled] = {}
        #: (dest, content type or None) -> the default headers; shared
        #: by every request built from them, which only reads them
        self._headers: Dict[tuple, Dict[str, str]] = {}
        self.request_count = 0

    def _connection(self, dest: Endpoint):
        """Generator: dial ``dest`` and pool the new connection."""
        try:
            conn = yield from self.host.tcp_connect(dest)
        except ConnectionRefused as exc:
            raise HttpRequestError(str(exc)) from exc
        entry = _Pooled(conn)
        self._conns[dest] = entry
        return entry

    def _watchdog(self, entry: _Pooled, progress) -> None:
        """The response watchdog of ``entry`` fired (see the module
        docstring); ``progress`` is its connection's mark when armed."""
        entry.armed = False
        conn = entry.conn
        if not entry.waiting or conn.closed:
            return  # idle: the next request arms it again
        if conn.send_pending or conn.progress != progress:
            self._arm_watchdog(entry)  # TCP is delivering, or progress
            return
        entry.expired = True
        conn.abort()  # the waiting read ends with end-of-stream

    def _arm_watchdog(self, entry: _Pooled) -> None:
        entry.armed = True
        self.env.call_later(
            self.RESPONSE_TIMEOUT_S, self._watchdog, entry, entry.conn.progress
        )

    def request(
        self,
        method: str,
        dest: Endpoint,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
        _retried: bool = False,
    ):
        """Generator performing one blocking request (use ``yield from``)."""
        entry = self._conns.get(dest)
        if entry is None or entry.conn.closed:
            entry = yield from self._connection(dest)
        all_headers = self._default_headers(dest, content_type if body else None)
        if headers:
            all_headers = {**all_headers, **headers}
        request = HttpRequest(method, path, all_headers, body)
        entry.waiting = True
        if not entry.armed:
            self._arm_watchdog(entry)
        try:
            # tail position: read_response next waits on recv
            entry.conn.send(request.encode(), tail=True)
            response, entry.buf = yield from read_response(entry.conn, entry.buf)
        except (ConnectionClosed, ConnectionError):
            entry.waiting = False  # before a redial waits on another entry
            self._conns.pop(dest, None)
            if entry.expired:
                raise HttpRequestError(
                    f"{method} {dest}{path}: no response within "
                    f"{self.RESPONSE_TIMEOUT_S} s"
                ) from None
            # stale keep-alive connection: redial once, like requests does
            if _retried:
                raise HttpRequestError(f"{method} {dest}{path} failed") from None
            response = yield from self.request(
                method, dest, path, body=body, headers=headers,
                content_type=content_type, _retried=True,
            )
            return response
        except HttpError as exc:
            # a malformed response leaves the stream mid-message
            self.invalidate(dest)
            raise HttpRequestError(f"{method} {dest}{path}: {exc}") from exc
        finally:
            entry.waiting = False
        self.request_count += 1
        if not response.keep_alive():
            entry.conn.close()
            self._conns.pop(dest, None)
        return response

    def _default_headers(self, dest: Endpoint, content_type: Optional[str]):
        """The headers every request to ``dest`` carries, with the
        ``Content-Type`` of a body; built once per pair."""
        key = (dest, content_type)
        headers = self._headers.get(key)
        if headers is None:
            headers = self._headers[key] = {
                "Host": f"{dest[0]}:{dest[1]}",
                "User-Agent": self.user_agent,
                "Accept": "*/*",
                "Connection": "keep-alive",
            }
            if content_type is not None:
                headers["Content-Type"] = content_type
        return headers

    def post(self, dest: Endpoint, path: str, body: bytes, **kw):
        """Generator: POST ``body`` and return the response."""
        return self.request("POST", dest, path, body=body, **kw)

    def get(self, dest: Endpoint, path: str, **kw):
        """Generator: GET ``path`` and return the response."""
        return self.request("GET", dest, path, **kw)

    def invalidate(self, dest: Endpoint) -> None:
        """Drop the pooled connection to ``dest`` (if any).

        Callers that abandon a request mid-flight (e.g. a timeout racing
        a slow response) must invalidate the connection: its stream still
        carries the half-finished exchange, so reusing it would hand the
        stale response to the next request.
        """
        entry = self._conns.pop(dest, None)
        if entry is not None:
            entry.conn.close()

    def close(self) -> None:
        """Close all pooled connections."""
        for entry in self._conns.values():
            entry.conn.close()
        self._conns.clear()

    def __repr__(self) -> str:
        return f"<HttpSession on {self.host.name} ({len(self._conns)} conns)>"
