"""The Provenance Manager: the paper's E2Clab extension (Section V).

Enabling ``provenance: ProvenanceManager`` in the environment config
deploys, on a cloud host:

* the ProvLight server (MQTT-SN broker + provenance data translators),
* the DfAnalyzer storage/query service as backend,

and hands out capture clients for edge devices — one topic per device as
in the paper's Fig. 5, sharded across the server's fixed-size translator
worker pool.  Clients are built through the unified capture API
(:func:`repro.capture.create_client`) from the manager's one
``capture=`` :class:`~repro.capture.CaptureConfig` (transport, grouping,
QoS, durability, cipher), so the transport is a deployment choice, and
:meth:`deploy_client` can override it per device.  The matching capture
sink (CoAP server, HTTP collector) is deployed on demand next to the
MQTT-SN server.

The manager deploys the capture pipeline and nothing else of the world.
Tiers and chaos compose with it from their own parts, as
``examples/continuum_chaos.py`` does::

    ChaosProfile.parse(spec).apply(
        ServerFaultInjector(manager.server),
        topology=ContinuumTopology(net, topology_spec, root_host=manager.host_name),
    )

The manager also exposes the DfAnalyzer query interface so users can
analyze captured provenance at workflow runtime.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..capture import (
    CaptureClient,
    CaptureConfig,
    create_client,
    deploy_capture_sink,
    get_transport_factory,
    normalize_transport,
)
from ..core import ProvLightServer, ServerConfig
from ..device import Device, XEON_GOLD_5220
from ..dfanalyzer import DfAnalyzerService
from ..net import Network
from ..simkernel import Environment

__all__ = ["ProvenanceManager"]

#: port of the manager's blocking-HTTP capture collector
HTTP_CAPTURE_PORT = 5000


def _registered_transport(name: str) -> str:
    """Canonical name of a registered capture transport."""
    get_transport_factory(name)  # raises ValueError naming it
    return normalize_transport(name)


class ProvenanceManager:
    """Deploys and owns the provenance capture pipeline.

    ``server`` (a :class:`~repro.core.ServerConfig`) carries every
    server-plane knob: pool size and bounds, broker shards, placement.
    ``capture`` (a :class:`~repro.capture.CaptureConfig`) is the config
    every deployed client gets; its ``cipher`` also reaches the sinks.
    """

    #: host name used when the manager provisions its own cloud node
    HOST_NAME = "provenance-manager"

    def __init__(
        self,
        network: Network,
        host_name: Optional[str] = None,
        server: ServerConfig = ServerConfig(),
        capture: CaptureConfig = CaptureConfig(),
    ):
        self.capture = replace(capture, transport=_registered_transport(capture.transport))
        self.network = network
        self.env: Environment = network.env
        self.service = DfAnalyzerService(metrics=self.env.metrics)
        host_name = host_name or self.HOST_NAME
        if host_name in network.hosts:
            host = network.hosts[host_name]
        else:
            device = Device(self.env, XEON_GOLD_5220, name=host_name)
            host = network.add_host(host_name, device=device)
        self.host = host
        #: deployed capture sinks: transport -> (sink, endpoint); the
        #: MQTT-SN server is always up, the others deploy on first use
        self._sinks: Dict[str, tuple] = {}
        self.server: ProvLightServer = self._deploy_sink("mqttsn", server)[0]
        self.clients: Dict[str, CaptureClient] = {}

    @property
    def host_name(self) -> str:
        return self.host.name

    def capture_config(self, transport: Optional[str] = None) -> CaptureConfig:
        """The config handed to every deployed capture client."""
        if transport is None:
            return self.capture
        return replace(self.capture, transport=normalize_transport(transport))

    def deploy_client(self, device: Device, topic: Optional[str] = None,
                      transport: Optional[str] = None):
        """Generator: create a capture client for ``device`` plus its
        dedicated translator (paper Fig. 5: topic-i / translator-i).

        ``transport`` overrides the manager-wide default for this one
        client; the matching sink is provisioned on first use.
        """
        topic = topic or f"provlight/{device.name}/data"
        if topic in self.clients:
            raise ValueError(f"topic {topic!r} already has a capture client")
        config = self.capture_config(transport)
        endpoint = yield from self._ensure_sink(config.transport, topic)
        client = create_client(device, endpoint, topic, config)
        yield from client.setup()
        self.clients[topic] = client
        return client

    def _deploy_sink(self, transport: str, server: Optional[ServerConfig] = None):
        """``(sink, endpoint)`` for ``transport``, deploying it on the
        manager host the first time it is asked for.  The MQTT-SN server
        takes the manager's config; every later sink shares its dedup
        index, so a ``dedup_state_path`` has one writer (a second index
        would compact the file away under the first one's handle).
        Every sink decrypts with the capture config's ``cipher``."""
        if transport not in self._sinks:
            sink, _ = self._sinks[transport] = deploy_capture_sink(
                transport, self.host, self.service.ingest,
                http_port=HTTP_CAPTURE_PORT, server=server,
            )
            sink.front.translator.cipher = self.capture.cipher
            if transport != "mqttsn":
                sink.front.deduper = self.server.front.deduper
        return self._sinks[transport]

    def _ensure_sink(self, transport: str, topic: str):
        """Generator: endpoint of the capture sink for ``transport``;
        an MQTT-SN topic is attached to the server's translator pool."""
        sink, endpoint = self._deploy_sink(transport)
        if transport == "mqttsn":
            yield from sink.pool.attach(topic)
        return endpoint

    def connect_layer_to_server(self, hosts: List[str], bandwidth_bps: float,
                                latency_s: float) -> None:
        """Ensure device hosts can reach the provenance host."""
        for host in hosts:
            try:
                self.network.link(host, self.host_name)
            except KeyError:
                self.network.connect(
                    host, self.host_name,
                    bandwidth_bps=bandwidth_bps, latency_s=latency_s,
                )

    # -- analysis passthrough (DfAnalyzer's role in the paper) ---------------
    def query(self, table: str):
        """Start a query on the captured provenance."""
        return self.service.query(table)

    def dataflow_summary(self, dataflow_tag: str):
        return self.service.dataflow_summary(dataflow_tag)

    @property
    def records_ingested(self) -> int:
        return int(self.service.records_ingested.count)

    def __repr__(self) -> str:
        return (
            f"<ProvenanceManager host={self.host_name} "
            f"transport={self.capture.transport} clients={len(self.clients)}>"
        )
