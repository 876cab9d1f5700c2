"""The per-POST process the blocking ``http`` send used to start.

Before a blocking capture ran its POST in the workflow's own process,
``HttpPostCaptureTransport.send`` started an ``http-capture-post``
process per POST and returned a completion event that the caller
yielded; the process succeeded it, or failed it with the request error,
once the response was in.  (It failed it on a durable client only, and
a best-effort caller treated both outcomes alike.)  The TCP sends of
that model always put the send pump on a zero-delay timer.

:func:`process_model` patches both back in.  ``oracle_send`` keeps the
generator shape of today's contract, so the same call sites run either
model: it starts the process and yields the completion event, which is
what those call sites used to do themselves.
"""

from contextlib import contextmanager
from typing import Optional
from unittest import mock

from repro.baselines.common import HttpPostCaptureTransport
from repro.http import HttpRequestError
from repro.net.tcp import TcpConnection


def _post(self, body, done):
    self.body_bytes.record(len(body))
    energy = self.device.energy
    error: Optional[Exception] = None
    if energy is not None:
        energy.rx_listen_start()
    try:
        response = yield from self.session.post(self.server, self.path, body)
        if not response.ok:
            self.capture_errors.record()
            error = HttpRequestError(
                f"collector rejected capture POST: {response.status}"
            )
    except HttpRequestError as exc:
        self.capture_errors.record()
        error = exc
    finally:
        if energy is not None:
            energy.rx_listen_stop()
        self.requests_sent.record()
        if not done.triggered:
            if error is not None:
                done.fail(error)
            else:
                done.succeed()


def oracle_send(self, body):
    done = self.env.event()
    self.env.process(_post(self, body, done),
                     name=f"http-capture-post-{self.path}")
    yield done


_tcp_send = TcpConnection.send


def deferred_send(self, data, tail=False):
    _tcp_send(self, data)


@contextmanager
def process_model():
    """Run blocking HTTP captures through the per-POST process model."""
    with mock.patch.object(HttpPostCaptureTransport, "send", oracle_send), \
            mock.patch.object(TcpConnection, "send", deferred_send):
        yield
