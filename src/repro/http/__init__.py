"""HTTP/1.1 on simulated TCP: blocking keep-alive client, uWSGI-style
multi-worker server, byte-accurate message encoding."""

from .client import HttpRequestError, HttpSession
from .messages import (
    ConnectionClosed,
    HttpError,
    HttpRequest,
    HttpResponse,
    parse_head,
    read_response,
)
from .server import HttpServer

__all__ = [
    "HttpSession",
    "HttpRequestError",
    "HttpServer",
    "HttpRequest",
    "HttpResponse",
    "HttpError",
    "ConnectionClosed",
    "parse_head",
    "read_response",
]
