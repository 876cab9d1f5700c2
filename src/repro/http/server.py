"""uWSGI-style HTTP/1.1 server on simulated TCP.

An accept callback hands each connection to a per-connection process
that parses requests and runs them through a bounded worker pool
(uWSGI's process/thread workers) with a calibrated service time per
request.
Handlers return an :class:`HttpResponse` or are generators (for handlers
that must themselves wait on simulated events, e.g. a backend insert).
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from ..calibration import SERVER_COSTS
from ..net import Host
from ..simkernel import Resource
from .messages import (
    ConnectionClosed,
    HttpError,
    HttpRequest,
    HttpResponse,
    StreamReader,
    read_request,
)

__all__ = ["HttpServer"]


class HttpServer:
    """A listening HTTP server bound to ``host:port``.

    No process waits for connections: :meth:`_on_accept` is a one-shot
    :meth:`~repro.net.TcpListener.on_accept` callback that starts the
    connection's ``<name>-conn`` process and re-registers itself.  A
    request the parser rejects (:class:`HttpError`) is answered 400 and
    closes its own connection only.  A keep-alive response is sent in
    tail position, so the TCP send pump may run in place.
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
        self.env.process(self._serve(conn), name=f"{self.name}-conn")
        self.listener.on_accept(self._on_accept)

    def _serve(self, conn):
        reader = StreamReader(conn)
        while True:
            try:
                eof = yield from reader.at_eof_between_messages()
                if eof:
                    return
                request = yield from read_request(reader)
            except ConnectionClosed:
                return
            except HttpError:
                self.errors.record()
                conn.send(HttpResponse(status=400, reason="Bad Request").encode())
                conn.close()
                return
            with self._workers.request() as slot:
                yield slot
                if self.service_time_s > 0:
                    yield self.env.timeout(self.service_time_s)
                try:
                    result = self.handler(request)
                    if inspect.isgenerator(result):
                        response = yield from result
                    else:
                        response = result
                except Exception:  # handler crash -> 500, keep serving
                    self.errors.record()
                    response = HttpResponse(status=500, reason="Internal Server Error")
            if response is None:
                response = HttpResponse(status=204, reason="No Content")
            self.requests.record()
            keep_alive = request.keep_alive() and response.keep_alive()
            # on keep-alive the loop next waits on recv
            conn.send(response.encode(), tail=keep_alive)
            if not keep_alive:
                conn.close()
                return

    def __repr__(self) -> str:
        return f"<HttpServer {self.name}>"
