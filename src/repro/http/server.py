"""uWSGI-style HTTP/1.1 server on simulated TCP.

Each accepted connection is a :class:`_Connection`: a receive buffer
and the parsed head of the request being read, driven by callbacks.
No process runs per connection.  Requests go through a bounded worker
pool (uWSGI's process/thread workers) with a calibrated service time
per request.  Every wait is a callback that takes the heap slot of the
event a per-connection process would have yielded:

* data: :meth:`~repro.net.TcpConnection.on_recv`, a one-shot waiter
  fired by a zero-delay timer where ``recv()``'s event would succeed;
* a worker slot: a callback on the pool's request, run in place when
  the slot is free, as yielding an already granted request resumes at
  once;
* the service time: a :meth:`~repro.simkernel.Environment.call_later`
  timer where the ``timeout`` was.

Handlers return an :class:`HttpResponse`, or a generator for a handler
that must itself wait on simulated events (e.g. a backend insert); such
a generator runs in a process started for it, which sends the response
when the generator returns.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from ..calibration import SERVER_COSTS
from ..net import Host
from ..simkernel import Resource
from .messages import HEAD_END, HttpError, HttpRequest, HttpResponse, parse_head

__all__ = ["HttpServer"]


class HttpServer:
    """A listening HTTP server bound to ``host:port``.

    No process waits for connections: :meth:`_on_accept` is a one-shot
    :meth:`~repro.net.TcpListener.on_accept` callback that re-registers
    itself and starts reading the new connection.  A request the parser
    rejects (:class:`HttpError`) is answered 400 and closes its own
    connection only.  A keep-alive response is sent in tail position, so
    the TCP send pump may run in place.  A connection whose peer ends
    the stream, between requests or inside one, is simply no longer
    read.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        handler: Callable[[HttpRequest], "HttpResponse"],
        workers: int = 8,
        service_time_s: float = SERVER_COSTS.http_request_service_s,
        name: Optional[str] = None,
    ):
        self.host = host
        self.env = host.env
        self.port = port
        self.handler = handler
        self.service_time_s = service_time_s
        self.name = name or f"http-{host.name}:{port}"
        self._workers = Resource(host.env, capacity=workers)
        self.listener = host.tcp_listen(port)
        self.requests = self.env.metrics.counter("http", "requests", server=self.name)
        self.errors = self.env.metrics.counter("http", "errors", server=self.name)
        self.listener.on_accept(self._on_accept)

    def close(self) -> None:
        """Drop the handler, so the backend it feeds is freed with the
        run instead of living in the run's cyclic object graph until a
        full collection.  Call it once the simulation is over."""
        self.handler = None

    def _on_accept(self, conn) -> None:
        self.listener.on_accept(self._on_accept)
        conn.on_recv(_Connection(self, conn).received)

    def __repr__(self) -> str:
        return f"<HttpServer {self.name}>"


class _Connection:
    """One accepted connection: bytes received and not yet parsed, the
    head of the request being read, and the request being served."""

    __slots__ = ("server", "conn", "buf", "head", "request", "slot")

    def __init__(self, server: HttpServer, conn):
        self.server = server
        self.conn = conn
        self.buf = b""
        self.head = None  # parse_head() of the request being read
        self.request: Optional[HttpRequest] = None
        self.slot = None

    def received(self, data: bytes) -> None:
        """The :meth:`~repro.net.TcpConnection.on_recv` callback."""
        if data:
            self.buf += data
            self.parse()
        # else end of stream: stop reading

    def parse(self) -> None:
        """Serve the next request once it is buffered; until then wait
        for more bytes."""
        buf = self.buf
        head = self.head
        if head is None:
            end = buf.find(HEAD_END)
            if end < 0:
                self.conn.on_recv(self.received)
                return
            try:
                head = parse_head(buf[:end])
            except HttpError:
                self.server.errors.record()
                self.conn.send(HttpResponse(status=400, reason="Bad Request").encode())
                self.conn.close()
                return
            self.buf = buf = buf[end + 4:]
            self.head = head
        (method, path, version), headers, length = head
        if len(buf) < length:
            self.conn.on_recv(self.received)
            return
        self.head = None
        self.buf = buf[length:]
        self.request = HttpRequest(method, path, headers, buf[:length], version)
        self.slot = slot = self.server._workers.request()
        if slot.callbacks is None:  # granted on the spot
            self.granted(slot)
        else:
            slot.callbacks.append(self.granted)

    def granted(self, _slot) -> None:
        service_time_s = self.server.service_time_s
        if service_time_s > 0:
            self.server.env.call_later(service_time_s, self.serve)
        else:
            self.serve()

    def serve(self) -> None:
        server = self.server
        try:
            result = server.handler(self.request)
        except Exception:  # handler crash -> 500, keep serving
            result = self.crashed()
        else:
            if inspect.isgenerator(result):
                server.env.process(self.run(result), name=f"{server.name}-handler")
                return
        self.respond(result)

    def run(self, handler):
        """Process body: wait out a generator handler, then respond."""
        try:
            response = yield from handler
        except Exception:  # handler crash -> 500, keep serving
            response = self.crashed()
        self.respond(response)

    def crashed(self) -> HttpResponse:
        self.server.errors.record()
        return HttpResponse(status=500, reason="Internal Server Error")

    def respond(self, response: Optional[HttpResponse]) -> None:
        """Release the worker slot, send ``response``, then read on."""
        self.slot.cancel()
        self.slot = None
        if response is None:
            response = HttpResponse(status=204, reason="No Content")
        self.server.requests.record()
        keep_alive = self.request.keep_alive() and response.keep_alive()
        self.request = None
        # on keep-alive, parse() next waits on recv
        self.conn.send(response.encode(), tail=keep_alive)
        if keep_alive:
            self.parse()
        else:
            self.conn.close()
