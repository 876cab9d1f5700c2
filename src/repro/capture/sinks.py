"""Capture-*sink* deployment shared by the harness and E2Clab.

``create_client`` picks the device-side transport; something on the
cloud side still has to terminate it.  :func:`deploy_capture_sink`
builds every sink — the full :class:`~repro.core.server.ProvLightServer`
(broker + translator pool) for MQTT-SN, a CoAP server, or the
blocking-HTTP collector — so the experiment harness and the Provenance
Manager deploy through one call, and a new transport's sink is added
here, next to the registry that names it.

Imports are deferred: the protocol stacks import :mod:`repro.capture`
for their adapters, so importing them at module time would be circular.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .registry import normalize_transport

__all__ = ["deploy_capture_sink"]

#: default port of the blocking-HTTP capture collector
DEFAULT_HTTP_SINK_PORT = 5000


def deploy_capture_sink(
    transport: str,
    host,
    ingest: Callable,
    target: str = "dfanalyzer",
    http_port: int = DEFAULT_HTTP_SINK_PORT,
    http_workers: int = 1,
    server=None,
) -> Tuple[object, Tuple[str, int]]:
    """Deploy the capture sink for ``transport`` on ``host``.

    ``ingest`` is the backend callable translated records are fed to.
    Returns ``(sink, endpoint)`` where ``endpoint`` is what
    :func:`~repro.capture.create_client` takes as ``server``.  The
    ``mqttsn`` sink is a :class:`~repro.core.server.ProvLightServer`;
    attach device topics with ``yield from sink.pool.attach(topic)``.
    Every sink has a ``close()`` that drops the backend; call it once the
    simulation is over, so the backend is freed with the run.

    ``server`` is the deployment's :class:`~repro.core.server.ServerConfig`.
    The MQTT-SN server takes all of it; the HTTP collector takes its
    ``dedup_state_path``, so a restarted collector recovering from the
    same path keeps rejecting ``(client_id, seq)`` pairs it ingested
    before the crash and journal replays stay exactly-once.
    """
    from ..core.server import CallableBackend, ProvLightServer, ServerConfig

    transport = normalize_transport(transport)
    server = server if server is not None else ServerConfig()
    if transport == "mqttsn":
        sink = ProvLightServer(host, CallableBackend(ingest), target=target,
                               config=server)
        return sink, sink.endpoint
    if transport == "coap":
        from ..coap import ProvLightCoapServer

        sink = ProvLightCoapServer(host, CallableBackend(ingest), target=target)
        return sink, sink.endpoint
    if transport == "http":
        from ..core.translator import Translator
        from ..http import HttpResponse, HttpServer
        from .envelope import ReplayDeduper, unwrap_payload

        translator = Translator(target)
        deduper = ReplayDeduper(state_path=server.dedup_state_path)

        def collector(request):
            try:
                body = request.body
                envelope = unwrap_payload(body)
                if envelope is not None:
                    client_id, seq, body = envelope
                    if deduper.is_duplicate(client_id, seq):
                        # a replayed POST the collector already ingested:
                        # still 201 so the durable client acks its journal
                        return HttpResponse(status=201, reason="Created")
                _, translated = translator.translate_payload(body)
                ingest(translated)
            except Exception:  # lint: disable=bare-swallow(wire bytes are untrusted: any malformed envelope/payload is capture loss, and loss must never crash the collector — the durability acceptance tests pin this)
                pass
            return HttpResponse(status=201, reason="Created")

        sink = HttpServer(host, http_port, collector, workers=http_workers)
        return sink, (host.name, http_port)
    raise ValueError(f"no capture sink known for transport {transport!r}")
