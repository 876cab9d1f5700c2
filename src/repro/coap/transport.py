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
                 target: str = "dfanalyzer", cipher=None,
                 config: ServerConfig = ServerConfig()):
        self.host = host
        self.env = host.env
        self.backend = backend
        self.front = IngestFront(target, cipher=cipher,
                                 state_path=config.dedup_state_path,
                                 metrics=self.env.metrics)
        self.server = CoapServer(host, port)
        self._inbox = Mailbox(self.env)
        self.server.route(DEFAULT_CAPTURE_PATH, self._on_post)
        self.env.process(self._work_loop(), name="coap-prov-translator")

    @property
    def endpoint(self) -> Endpoint:
        return (self.host.name, self.server.port)

    def close(self) -> None:
        """Drop the backend once the simulation is over (see
        :meth:`repro.http.HttpServer.close`)."""
        self.backend = None

    def _on_post(self, path, payload, reply):
        self._inbox.put_nowait((payload, reply))

    def _work_loop(self):
        device = self.host.device
        while True:
            payload, reply = yield self._inbox.get()
            entry = self.front.admit(payload)
            if entry is None:
                reply(CODE_CHANGED)
                continue
            work = SERVER_COSTS.translate_per_message_s
            if len(entry[1]) > 1:
                work += SERVER_COSTS.translate_group_fixed_s
            if device is not None:
                yield from device.cpu.run(io_busy_s=work, tag="translator")
            else:
                yield self.env.timeout(work)
            # uniform backend protocol: ingest() returns an iterable of
            # simulation events (empty for synchronous backends)
            try:
                yield from self.backend.ingest(entry[2])
            except Exception:
                # unmarked: a durable client replays the record
                self.front.failures.record()
                reply(CODE_SERVICE_UNAVAILABLE)
                continue
            self.front.accepted((entry,))
            reply(CODE_CHANGED)


class CoapCaptureTransport(CaptureTransport):
    """Capture over confirmable CoAP POSTs.

    ``send()`` is :meth:`~repro.coap.CoapClient.post_nowait`: the CON
    retransmission machinery runs in the CoAP client's socket callback, off
    the workflow's critical path.  CoAP is connectionless, so there is
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

    def send(self, payload: bytes):
        return self.coap.post_nowait(self.path, payload)


register_transport("coap", CoapCaptureTransport)
