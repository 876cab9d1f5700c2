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
from ..capture.envelope import ReplayDeduper, unwrap_payload
from ..core.translator import Translator
from ..device import Device
from ..net import Endpoint, Host
from ..simkernel import Counter, Store
from .endpoint import DEFAULT_COAP_PORT, CoapClient, CoapServer
from .messages import CODE_CHANGED

__all__ = [
    "ProvLightCoapServer",
    "CoapCaptureTransport",
    "DEFAULT_CAPTURE_PATH",
]

#: resource the capture server exposes and clients POST to by default
DEFAULT_CAPTURE_PATH = "/prov"


class ProvLightCoapServer:
    """Capture sink: CoAP server + translator + backend."""

    def __init__(self, host: Host, backend, port: int = DEFAULT_COAP_PORT,
                 target: str = "dfanalyzer", cipher=None):
        self.host = host
        self.env = host.env
        self.backend = backend
        self.translator = Translator(target, cipher=cipher)
        self.server = CoapServer(host, port)
        self.records_ingested = Counter("records")
        self.translate_errors = Counter("errors")
        #: CoAP CON is at-least-once on the wire; durable clients add a
        #: (client_id, seq) envelope and this index drops the replays
        self.deduper = ReplayDeduper()
        self.duplicates_dropped = Counter("duplicates-dropped")
        self._inbox: Store = Store(self.env)
        self.server.route(DEFAULT_CAPTURE_PATH, self._on_post)
        self.env.process(self._work_loop(), name="coap-prov-translator")

    @property
    def endpoint(self) -> Endpoint:
        return (self.host.name, self.server.port)

    def _on_post(self, path, payload):
        self._inbox.put_nowait(payload)
        return CODE_CHANGED, b""

    def _work_loop(self):
        device = self.host.device
        while True:
            payload = yield self._inbox.get()
            try:
                envelope = unwrap_payload(payload)
            except Exception:
                self.translate_errors.record()
                continue
            if envelope is not None:
                client_id, seq, payload = envelope
                if self.deduper.is_duplicate(client_id, seq):
                    self.duplicates_dropped.record()
                    continue
            try:
                records, translated = self.translator.translate_payload(payload)
            except Exception:
                self.translate_errors.record()
                continue
            work = SERVER_COSTS.translate_per_message_s
            if len(records) > 1:
                work += SERVER_COSTS.translate_group_fixed_s
            if device is not None:
                yield from device.cpu.run(io_busy_s=work, tag="translator")
            else:
                yield self.env.timeout(work)
            # uniform backend protocol: ingest() returns an iterable of
            # simulation events (empty for synchronous backends)
            yield from self.backend.ingest(translated)
            self.records_ingested.record(len(records))


class CoapCaptureTransport(CaptureTransport):
    """Capture over confirmable CoAP POSTs.

    ``send()`` is :meth:`~repro.coap.CoapClient.post_nowait`: the CON
    retransmission machinery runs in the CoAP client's receive loop, off
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
