"""The per-connection process :class:`~repro.http.HttpServer` ran
before it read its connections from TCP callbacks.

:class:`ProcessHttpServer` is the parent's server: the accept callback
starts one ``<name>-conn`` process per connection, which reads requests
with the frozen generator parser (``messages_oracle.py``), waits on
``conn.recv()`` events, yields the worker-pool request and a service
``timeout``, and runs a generator handler with ``yield from`` inside
itself.  ``test_server_equivalence.py`` runs it beside the callback
server.  Do not edit: it is the reference.
"""

import inspect

from repro.http import HttpServer

from . import messages_oracle as oracle


class ProcessHttpServer(HttpServer):
    """Oracle: one process per accepted connection."""

    def _on_accept(self, conn) -> None:
        self.env.process(self._serve(conn), name=f"{self.name}-conn")
        self.listener.on_accept(self._on_accept)

    def _serve(self, conn):
        reader = oracle.StreamReader(conn)
        while True:
            try:
                eof = yield from reader.at_eof_between_messages()
                if eof:
                    return
                request = yield from oracle.read_request(reader)
            except oracle.ConnectionClosed:
                return
            except oracle.HttpError:
                self.errors.record()
                conn.send(oracle.HttpResponse(status=400, reason="Bad Request").encode())
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
                    response = oracle.HttpResponse(status=500, reason="Internal Server Error")
            if response is None:
                response = oracle.HttpResponse(status=204, reason="No Content")
            self.requests.record()
            keep_alive = request.keep_alive() and response.keep_alive()
            # on keep-alive the loop next waits on recv
            conn.send(response.encode(), tail=keep_alive)
            if not keep_alive:
                conn.close()
                return
