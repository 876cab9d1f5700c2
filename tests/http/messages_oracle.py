"""Frozen copy of the HTTP message encoders and generator parsers
before the one-pass encoders and the buffer parser replaced them.

``test_messages_oracle.py`` pins :mod:`repro.http.messages` against it:
encoders byte for byte, parsers result for result and error for error;
``server_oracle.py`` reads its requests with the generator
``read_request`` kept here.  Do not edit: it is the reference.

The encoders build one ``bytes`` per header line and join them; the
parsers are generators over a :class:`StreamReader`, which waits on
``conn.recv()`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "HttpError",
    "ConnectionClosed",
    "StreamReader",
    "read_request",
    "read_response",
]

CRLF = b"\r\n"


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
        headers = dict(self.headers)
        if self.body and "Content-Length" not in headers:
            headers["Content-Length"] = str(len(self.body))
        lines = [f"{self.method} {self.path} {self.version}".encode()]
        lines += [f"{k}: {v}".encode() for k, v in headers.items()]
        return CRLF.join(lines) + CRLF + CRLF + self.body

    @property
    def wire_size(self) -> int:
        return len(self.encode())

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
        headers = dict(self.headers)
        headers.setdefault("Content-Length", str(len(self.body)))
        lines = [f"{self.version} {self.status} {self.reason}".encode()]
        lines += [f"{k}: {v}".encode() for k, v in headers.items()]
        return CRLF.join(lines) + CRLF + CRLF + self.body

    @property
    def wire_size(self) -> int:
        return len(self.encode())

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def keep_alive(self) -> bool:
        return self.headers.get("Connection", "keep-alive").lower() != "close"


class StreamReader:
    """Buffered reader over a simulated TCP connection.

    All read methods are generators (use ``yield from``); they raise
    :class:`ConnectionClosed` if the stream ends before the requested
    data arrives.
    """

    def __init__(self, conn):
        self.conn = conn
        self._buf = bytearray()
        self._eof = False

    def _fill(self):
        if self._eof:
            raise ConnectionClosed("read past end of stream")
        data = yield self.conn.recv()
        if data == b"":
            self._eof = True
            raise ConnectionClosed("peer closed the connection")
        self._buf.extend(data)

    def read_until(self, delimiter: bytes):
        """Read up to and including ``delimiter``."""
        while True:
            idx = self._buf.find(delimiter)
            if idx >= 0:
                end = idx + len(delimiter)
                data = bytes(self._buf[:end])
                del self._buf[:end]
                return data
            yield from self._fill()

    def read_exactly(self, n: int):
        """Read exactly ``n`` bytes."""
        while len(self._buf) < n:
            yield from self._fill()
        data = bytes(self._buf[:n])
        del self._buf[:n]
        return data

    def at_eof_between_messages(self):
        """Block until either data arrives (False) or a clean EOF (True).

        Lets a keep-alive server distinguish "next request coming" from
        "client closed the idle connection".
        """
        if self._buf:
            return False
        if self._eof:
            return True
        data = yield self.conn.recv()
        if data == b"":
            self._eof = True
            return True
        self._buf.extend(data)
        return False


def _decode(raw: bytes) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise HttpError(f"message head is not UTF-8: {raw!r}") from None


def _parse_headers(block: bytes) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in _decode(block).split("\r\n"):
        if not line:
            continue
        if ":" not in line:
            raise HttpError(f"malformed header line: {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip()] = value.strip()
    return headers


def _content_length(headers: Dict[str, str]) -> int:
    """The ``Content-Length`` (1*DIGIT, RFC 9110); 0 when absent."""
    value = headers.get("Content-Length", "0")
    if not (value.isascii() and value.isdigit()):
        raise HttpError(f"bad Content-Length {value!r}")
    return int(value)


def read_request(reader: StreamReader):
    """Generator parsing one request from ``reader``.

    Raises :class:`HttpError` on a malformed head or ``Content-Length``.
    """
    head = yield from reader.read_until(CRLF + CRLF)
    request_line, _, header_block = head[:-4].partition(CRLF)
    try:
        method, path, version = _decode(request_line).split(" ", 2)
    except ValueError:
        raise HttpError(f"malformed request line: {request_line!r}") from None
    headers = _parse_headers(header_block)
    body = b""
    length = _content_length(headers)
    if length:
        body = yield from reader.read_exactly(length)
    return HttpRequest(method=method, path=path, headers=headers, body=body, version=version)


def read_response(reader: StreamReader):
    """Generator parsing one response from ``reader``.

    Raises :class:`HttpError` on a malformed head or ``Content-Length``.
    """
    head = yield from reader.read_until(CRLF + CRLF)
    status_line, _, header_block = head[:-4].partition(CRLF)
    parts = _decode(status_line).split(" ", 2)
    if len(parts) < 2:
        raise HttpError(f"malformed status line: {status_line!r}")
    version, status = parts[0], parts[1]
    reason = parts[2] if len(parts) > 2 else ""
    try:
        status_code = int(status)
    except ValueError:
        raise HttpError(f"bad status code {status!r}") from None
    headers = _parse_headers(header_block)
    body = b""
    length = _content_length(headers)
    if length:
        body = yield from reader.read_exactly(length)
    return HttpResponse(
        status=status_code, reason=reason, headers=headers, body=body, version=version
    )
