"""Blocking HTTP/1.1 client with keep-alive sessions.

Mirrors how the ProvLake/DfAnalyzer capture libraries use ``requests``:
one session per library instance, connection reused across POSTs, and a
fully synchronous request/response cycle — the caller is blocked for
(client serialization +) transmission + server service + response, which
is exactly the overhead mechanism paper Section III measures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..net import ConnectionRefused, Endpoint, Host
from .messages import (
    ConnectionClosed,
    HttpError,
    HttpRequest,
    HttpResponse,
    StreamReader,
    read_response,
)

__all__ = ["HttpSession", "HttpRequestError"]


class HttpRequestError(ConnectionError):
    """The request could not be completed."""


class HttpSession:
    """A keep-alive HTTP client bound to one host."""

    def __init__(self, host: Host, user_agent: str = "repro-requests/1.0"):
        self.host = host
        self.env = host.env
        self.user_agent = user_agent
        self._conns: Dict[Endpoint, Tuple[object, StreamReader]] = {}
        self.request_count = 0

    def _connection(self, dest: Endpoint):
        """Generator: return a live (conn, reader), dialing if needed."""
        entry = self._conns.get(dest)
        if entry is not None and not entry[0].closed:
            return entry
        try:
            conn = yield from self.host.tcp_connect(dest)
        except ConnectionRefused as exc:
            raise HttpRequestError(str(exc)) from exc
        entry = (conn, StreamReader(conn))
        self._conns[dest] = entry
        return entry

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
        conn, reader = yield from self._connection(dest)
        all_headers = {
            "Host": f"{dest[0]}:{dest[1]}",
            "User-Agent": self.user_agent,
            "Accept": "*/*",
            "Connection": "keep-alive",
        }
        if body:
            all_headers["Content-Type"] = content_type
        if headers:
            all_headers.update(headers)
        request = HttpRequest(method=method, path=path, headers=all_headers, body=body)
        try:
            # tail position: read_response next waits on recv
            conn.send(request.encode(), tail=True)
            response = yield from read_response(reader)
        except (ConnectionClosed, ConnectionError):
            # stale keep-alive connection: redial once, like requests does
            self._conns.pop(dest, None)
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
        self.request_count += 1
        if not response.keep_alive():
            conn.close()
            self._conns.pop(dest, None)
        return response

    def post(self, dest: Endpoint, path: str, body: bytes, **kw):
        """Generator: POST ``body`` and return the response."""
        response = yield from self.request("POST", dest, path, body=body, **kw)
        return response

    def get(self, dest: Endpoint, path: str, **kw):
        """Generator: GET ``path`` and return the response."""
        response = yield from self.request("GET", dest, path, **kw)
        return response

    def invalidate(self, dest: Endpoint) -> None:
        """Drop the pooled connection to ``dest`` (if any).

        Callers that abandon a request mid-flight (e.g. a timeout racing
        a slow response) must invalidate the connection: its stream still
        carries the half-finished exchange, so reusing it would hand the
        stale response to the next request.
        """
        entry = self._conns.pop(dest, None)
        if entry is not None:
            entry[0].close()

    def close(self) -> None:
        """Close all pooled connections."""
        for conn, _ in self._conns.values():
            conn.close()
        self._conns.clear()

    def __repr__(self) -> str:
        return f"<HttpSession on {self.host.name} ({len(self._conns)} conns)>"
