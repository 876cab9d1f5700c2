"""ProvLight capture over CoAP instead of MQTT-SN.

Same design properties as the MQTT-SN client (asynchronous background
sender, binary+zlib payloads, ended-task grouping — all owned by the
shared :class:`~repro.capture.CaptureClient` façade), but the transport
is a confirmable CoAP POST per message: a 2-packet CON/ACK exchange
versus MQTT-SN QoS 2's 4-packet handshake — at-least-once with
server-side deduplication versus exactly-once.  The protocol-comparison
benchmark quantifies the trade.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..calibration import SERVER_COSTS
from ..capture import CaptureConfig, CaptureTransport, register_transport
from ..core.server import ServerConfig
from ..core.translator import IngestFront
from ..device import Device
from ..net import Endpoint, Host
from ..simkernel import Mailbox
from .endpoint import DEFAULT_COAP_PORT, CoapClient, CoapServer
from .messages import CODE_CHANGED, CODE_SERVICE_UNAVAILABLE

__all__ = [
    "ProvLightCoapServer",
    "CoapCaptureTransport",
    "DEFAULT_CAPTURE_PATH",
]

#: resource the capture server exposes and clients POST to by default
DEFAULT_CAPTURE_PATH = "/prov"


class ProvLightCoapServer:
    """Capture sink: CoAP server + ingest front + backend.

    A CON is answered once the backend took its record: 2.04 piggy-backed
    on the ACK, or 5.03 when the backend failed (counted in
    ``front.failures``), which a durable client replays.  A malformed or
    duplicate payload is answered 2.04 too, as the HTTP collector
    answers it 201: the client acks it and does not send it again."""

    def __init__(self, host: Host, backend, port: int = DEFAULT_COAP_PORT,
                 cipher=None, config: ServerConfig = ServerConfig()):
        self.host = host
        self.env = host.env
        self.backend = backend
        self.front = IngestFront(cipher=cipher,
                                 state_path=config.dedup_state_path,
                                 metrics=self.env.metrics)
        self.server = CoapServer(host, port)
        self._inbox = Mailbox(self.env)
        self.server.route(DEFAULT_CAPTURE_PATH, self._on_post)
        self._inbox.on_item(self._on_item)

    @property
    def endpoint(self) -> Endpoint:
        return (self.host.name, self.server.port)

    def close(self) -> None:
        """Drop the backend once the simulation is over (see
        :meth:`repro.http.HttpServer.close`)."""
        self.backend = None

    def _on_post(self, path, payload, reply):
        self._inbox.put_nowait((payload, reply))

    def _on_item(self, item) -> None:
        """The inbox consumer: admit one record, charge its translation
        on the CPU, hand it to the backend, reply, then take the next."""
        payload, reply = item
        entry = self.front.admit(payload)
        if entry is None:
            reply(CODE_CHANGED)
            self._inbox.on_item(self._on_item)
            return
        work = SERVER_COSTS.translate_per_message_s
        if len(entry[1]) > 1:
            work += SERVER_COSTS.translate_group_fixed_s
        charged = partial(self._charged, entry, reply)
        device = self.host.device
        if device is None:
            self.env.call_later(work, charged)
        else:
            device.cpu.run_async(io_busy_s=work, tag="translator", on_done=charged)

    def _charged(self, entry, reply) -> None:
        self.backend.ingest_batch([entry[2]], partial(self._ingested, entry, reply))

    def _ingested(self, entry, reply, exc: Optional[BaseException]) -> None:
        if exc is None:
            self.front.accepted((entry,))
            reply(CODE_CHANGED)
        else:
            # unmarked: a durable client replays the record
            self.front.failures.record()
            reply(CODE_SERVICE_UNAVAILABLE)
        self._inbox.on_item(self._on_item)


class CoapCaptureTransport(CaptureTransport):
    """Capture over confirmable CoAP POSTs.

    ``send(payload, on_done)`` is :meth:`~repro.coap.CoapClient.post_nowait`:
    the CON retransmission machinery runs in the CoAP client's socket
    callback and timers, off the workflow's critical path.  CoAP is connectionless, so there is
    nothing to establish and capture may begin before ``setup()``.
    """

    name = "coap"
    blocking = False
    requires_setup = False

    def __init__(self, device: Device, server: Endpoint, topic: str,
                 config: CaptureConfig):
        self.coap = CoapClient(device.host, server)
        # topics map onto the resource path; MQTT-style topic names keep
        # the server's default capture resource
        self.path = topic if topic.startswith("/") else DEFAULT_CAPTURE_PATH

    def connect(self):
        """CoAP is connectionless: nothing to establish."""
        return None
        yield  # pragma: no cover - generator shape

    def register(self, topic: str):
        return self.path
        yield  # pragma: no cover - generator shape

    def send(self, payload: bytes, on_done) -> None:
        self.coap.post_nowait(self.path, payload, on_done)


register_transport("coap", CoapCaptureTransport)
