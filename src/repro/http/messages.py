"""HTTP/1.1 message formatting and parsing.

Real bytes: requests/responses are encoded exactly as a ``requests``
client and a uWSGI server would put them on the wire (request line,
canonical headers, ``Content-Length`` framing).  The byte counts behind
the paper's Fig. 6c baseline traffic come from these encoders plus the
TCP/IP headers.

Both ``encode`` methods build the whole head as one ``str`` and encode
it once.  Parsing works on buffered bytes: :func:`parse_head` is the one
head parser.  The server (:mod:`repro.http.server`) calls it on each
connection's buffer, and the client's :func:`read_response` on the
pooled connection's; both call it as soon as the blank line that ends
the head is in, so a malformed head or ``Content-Length`` is rejected
before any body byte is awaited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "HttpError",
    "ConnectionClosed",
    "HEAD_END",
    "parse_head",
    "read_response",
]

#: the blank line that ends a message head
HEAD_END = b"\r\n\r\n"


class HttpError(Exception):
    """Malformed HTTP traffic."""


class ConnectionClosed(HttpError):
    """The peer closed the connection mid-message."""


@dataclass
class HttpRequest:
    method: str = "GET"
    path: str = "/"
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def encode(self) -> bytes:
        headers = self.headers
        body = self.body
        head = f"{self.method} {self.path} {self.version}\r\n"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        if body and "Content-Length" not in headers:
            head += f"Content-Length: {len(body)}\r\n"
        return (head + "\r\n").encode() + body

    def keep_alive(self) -> bool:
        return self.headers.get("Connection", "keep-alive").lower() != "close"


@dataclass
class HttpResponse:
    status: int = 200
    reason: str = "OK"
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def encode(self) -> bytes:
        headers = self.headers
        body = self.body
        head = f"{self.version} {self.status} {self.reason}\r\n"
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        if "Content-Length" not in headers:
            head += f"Content-Length: {len(body)}\r\n"
        return (head + "\r\n").encode() + body

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def keep_alive(self) -> bool:
        return self.headers.get("Connection", "keep-alive").lower() != "close"


def _decode(raw: bytes) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise HttpError(f"message head is not UTF-8: {raw!r}") from None


def parse_head(head: bytes, response: bool = False) -> Tuple[tuple, Dict[str, str], int]:
    """Parse a complete message head, the bytes before :data:`HEAD_END`.

    Returns ``(start, headers, length)``: ``start`` is ``(method, path,
    version)`` for a request and ``(version, status, reason)`` for a
    ``response``, and ``length`` is the ``Content-Length`` (1*DIGIT,
    RFC 9110; 0 when absent).  Raises :class:`HttpError` on a malformed
    start line, a header line without a colon, a bad ``Content-Length``
    or a head that is not UTF-8, checked in that order.

    The heads on a keep-alive connection repeat (the same client sends
    the same headers, the server the same response), so the parse of a
    recent head is reused; ``headers`` is a fresh dict on every call.
    """
    start, headers, length = _parse_head(head, response)
    return start, dict(headers), length


@lru_cache(maxsize=256)
def _parse_head(head: bytes, response: bool) -> Tuple[tuple, tuple, int]:
    """:func:`parse_head` with the headers as a tuple of pairs, so that
    a cached result cannot be changed by its caller."""
    start_line, _, block = head.partition(b"\r\n")
    start = _decode(start_line).split(" ", 2)
    if response:
        if len(start) < 2:
            raise HttpError(f"malformed status line: {start_line!r}")
        try:
            status = int(start[1])
        except ValueError:
            raise HttpError(f"bad status code {start[1]!r}") from None
        start = (start[0], status, start[2] if len(start) > 2 else "")
    elif len(start) < 3:
        raise HttpError(f"malformed request line: {start_line!r}")
    headers: Dict[str, str] = {}
    if block:
        for line in _decode(block).split("\r\n"):
            if not line:
                continue
            key, colon, value = line.partition(":")
            if not colon:
                raise HttpError(f"malformed header line: {line!r}")
            headers[key.strip()] = value.strip()
    value = headers.get("Content-Length", "0")
    if not (value.isascii() and value.isdigit()):
        raise HttpError(f"bad Content-Length {value!r}")
    return tuple(start), tuple(headers.items()), int(value)


def read_response(conn, buf: bytes = b""):
    """Generator reading one response from the TCP connection ``conn``.

    ``buf`` holds bytes already received on ``conn`` and not yet
    consumed.  Returns ``(response, rest)``, ``rest`` being the bytes
    received after the response.  Waits on ``conn.recv()`` only while
    the head or the body is incomplete; raises :class:`HttpError` on a
    malformed head and :class:`ConnectionClosed` when the stream ends
    first.
    """
    end = buf.find(HEAD_END)
    while end < 0:
        data = yield conn.recv()
        if not data:
            raise ConnectionClosed("peer closed the connection")
        buf += data
        end = buf.find(HEAD_END)
    (version, status, reason), headers, length = parse_head(buf[:end], response=True)
    end += 4
    while len(buf) - end < length:
        data = yield conn.recv()
        if not data:
            raise ConnectionClosed("peer closed the connection")
        buf += data
    stop = end + length
    response = HttpResponse(status, reason, headers, buf[end:stop], version)
    return response, buf[stop:]
