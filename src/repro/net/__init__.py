"""Simulated network substrate: links, hosts, UDP and TCP.

Byte-accurate packets over store-and-forward links with configurable
bandwidth/latency/jitter/loss; hosts dispatch to UDP and TCP sockets.
Protocol layers (:mod:`repro.mqttsn`, :mod:`repro.http`) build on these
sockets exactly like their real counterparts build on the OS.

:mod:`repro.net.continuum` assembles hosts and links into tiered
edge/fog/cloud topologies from a spec string, and the fault-injection
stack (:mod:`~repro.net.faults`, :mod:`~repro.net.chaos`,
:mod:`~repro.net.fleet`) drives reproducible link-, server- and
device-plane chaos over them.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "ChaosEvent": ".chaos",
    "ChaosProfile": ".chaos",
    "ServerFaultInjector": ".chaos",
    "LINK_PROFILES": ".continuum",
    "TOPOLOGY_PRESETS": ".continuum",
    "ContinuumTopology": ".continuum",
    "LinkProfile": ".continuum",
    "TierSpec": ".continuum",
    "TopologySpec": ".continuum",
    "UdpShardDispatcher": ".dispatcher",
    "VirtualSocket": ".dispatcher",
    "LinkFaultInjector": ".faults",
    "FleetClientProxy": ".fleet",
    "FleetFaultInjector": ".fleet",
    "Host": ".host",
    "PortInUse": ".host",
    "Link": ".link",
    "NetworkConstraint": ".netem",
    "apply_constraints": ".netem",
    "parse_delay": ".netem",
    "parse_rate": ".netem",
    "TCP_HEADER_BYTES": ".packet",
    "UDP_HEADER_BYTES": ".packet",
    "Endpoint": ".packet",
    "Packet": ".packet",
    "ConnectionRefused": ".tcp",
    "ConnectionReset": ".tcp",
    "TcpConnection": ".tcp",
    "TcpListener": ".tcp",
    "Network": ".topology",
    "UnroutableError": ".topology",
    "UdpSocket": ".udp",
    "message_ids": ".udp",
}

__all__ = [
    "Host",
    "PortInUse",
    "Link",
    "LinkFaultInjector",
    "ServerFaultInjector",
    "FleetFaultInjector",
    "FleetClientProxy",
    "ChaosProfile",
    "ChaosEvent",
    "ContinuumTopology",
    "TopologySpec",
    "TierSpec",
    "LinkProfile",
    "LINK_PROFILES",
    "TOPOLOGY_PRESETS",
    "Network",
    "UnroutableError",
    "NetworkConstraint",
    "apply_constraints",
    "parse_rate",
    "parse_delay",
    "Packet",
    "Endpoint",
    "UDP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "UdpSocket",
    "message_ids",
    "UdpShardDispatcher",
    "VirtualSocket",
    "TcpConnection",
    "TcpListener",
    "ConnectionRefused",
    "ConnectionReset",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
