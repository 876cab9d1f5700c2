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
    The MQTT-SN server takes all of it; the CoAP server and the HTTP
    collector take its ``dedup_state_path``.  Every sink's
    :class:`~repro.core.translator.IngestFront` is its ``front``.
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

        sink = ProvLightCoapServer(host, CallableBackend(ingest), target=target,
                                   config=server)
        return sink, sink.endpoint
    if transport == "http":
        from ..core.translator import IngestFront
        from ..http import HttpResponse, HttpServer

        front = IngestFront(target, state_path=server.dedup_state_path,
                            metrics=host.env.metrics)

        def collector(request):
            # a malformed payload or a replayed duplicate is still 201:
            # the client acks it and does not send it again
            entry = front.admit(request.body)
            if entry is not None:
                try:
                    ingest(entry[2])
                except Exception:
                    # unmarked: a durable client replays the record
                    front.failures.record()
                    return HttpResponse(status=503, reason="Service Unavailable")
                front.accepted((entry,))
            return HttpResponse(status=201, reason="Created")

        sink = HttpServer(host, http_port, collector, workers=http_workers)
        sink.front = front
        return sink, (host.name, http_port)
    raise ValueError(f"no capture sink known for transport {transport!r}")
