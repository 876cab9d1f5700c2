"""The Provenance Manager: the paper's E2Clab extension (Section V).

Enabling ``provenance: ProvenanceManager`` in the environment config
deploys, on a cloud host:

* the ProvLight server (MQTT-SN broker + provenance data translators),
* the DfAnalyzer storage/query service as backend,

and hands out capture clients for edge devices — one topic per device as
in the paper's Fig. 5, sharded across the server's fixed-size translator
worker pool.  Clients are built through the unified capture API
(:func:`repro.capture.create_client`), so the transport is a deployment
choice: the manager-wide default is the ``transport=`` argument
(``"mqttsn"`` unless given), and :meth:`deploy_client` can override it
per device.  The matching capture sink (CoAP server, HTTP collector) is
deployed on demand next to the MQTT-SN server.

The manager also exposes the DfAnalyzer query interface so users can
analyze captured provenance at workflow runtime.
"""

from __future__ import annotations

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
from ..net import (
    ChaosProfile,
    ContinuumTopology,
    Network,
    ServerFaultInjector,
    TopologySpec,
)
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
    """

    #: host name used when the manager provisions its own cloud node
    HOST_NAME = "provenance-manager"

    def __init__(
        self,
        network: Network,
        target: str = "dfanalyzer",
        group_size: int = 0,
        compress: bool = True,
        host_name: Optional[str] = None,
        server: ServerConfig = ServerConfig(),
        transport: str = "mqttsn",
        chaos: Optional[str] = None,
        topology: Optional[str] = None,
    ):
        self.transport = _registered_transport(transport)
        chaos_profile = ChaosProfile.parse(chaos) if chaos else None
        topology_spec = TopologySpec.parse(topology) if topology else None
        if chaos_profile is not None:
            # before any side effect (host provisioning, port binds), so a
            # bad config leaves the network untouched
            chaos_profile.preflight(
                transport=self.transport,
                broker_shards=server.broker_shards,
                has_topology=topology_spec is not None,
            )
        self.network = network
        self.env: Environment = network.env
        self.target = target
        self.group_size = group_size
        self.compress = compress
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
        #: the tiered continuum rooted at the manager host, when the
        #: deployment asked for one (``topology=``); device hosts are
        #: created bare — attach devices with :meth:`place_device`
        self.topology: Optional[ContinuumTopology] = None
        if topology_spec is not None:
            self.topology = ContinuumTopology(
                network, topology_spec, root_host=self.host.name
            )
        #: server-plane fault injector (always available for manual chaos)
        self.fault_injector = ServerFaultInjector(self.server, network=network)
        if chaos_profile is not None:
            chaos_profile.apply(self.fault_injector, topology=self.topology)

    @property
    def host_name(self) -> str:
        return self.host.name

    def capture_config(self, transport: Optional[str] = None) -> CaptureConfig:
        """The config handed to every deployed capture client."""
        return CaptureConfig(
            transport=normalize_transport(transport) if transport else self.transport,
            group_size=self.group_size,
            compress=self.compress,
        )

    def place_device(self, device: Device, tier: Optional[str] = None) -> str:
        """Attach ``device`` to the next free host of the topology's
        leaf tier (or of ``tier``); returns the host name.

        The manager's ``topology=`` builds the tiered network with bare
        forwarding hosts; experiment drivers place their devices here
        and then :meth:`deploy_client` them as usual.
        """
        if self.topology is None:
            raise ValueError(
                "place_device needs a topology= deployment (the star "
                "layout attaches devices through network.add_host)"
            )
        tier = tier or self.topology.spec.leaf.name
        for host_name in self.topology.hosts_in(tier):
            host = self.network.hosts[host_name]
            if host.device is None:
                host.device = device
                device.host = host
                return host_name
        raise ValueError(
            f"no free host left in tier {tier!r} "
            f"({len(self.topology.hosts_in(tier))} hosts, all occupied)"
        )

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
        would compact the file away under the first one's handle)."""
        if transport not in self._sinks:
            sink, _ = self._sinks[transport] = deploy_capture_sink(
                transport, self.host, self.service.ingest, target=self.target,
                http_port=HTTP_CAPTURE_PORT, server=server,
            )
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
            f"<ProvenanceManager target={self.target} host={self.host_name} "
            f"transport={self.transport} clients={len(self.clients)}>"
        )
