"""HTTP/1.1 on simulated TCP: blocking keep-alive client, uWSGI-style
multi-worker server, byte-accurate message encoding."""

from .._lazy import lazy_exports

_EXPORTS = {
    "HttpRequestError": ".client",
    "HttpSession": ".client",
    "ConnectionClosed": ".messages",
    "HttpError": ".messages",
    "HttpRequest": ".messages",
    "HttpResponse": ".messages",
    "parse_head": ".messages",
    "read_response": ".messages",
    "HttpServer": ".server",
}

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


__getattr__ = lazy_exports(__name__, _EXPORTS)
