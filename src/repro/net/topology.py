"""Network topology: hosts, links and routing.

The experiments use a star (64 edge devices — one cloud server), but the
network supports arbitrary multi-hop topologies: routes are shortest
paths (by hop count, then latency) over a :mod:`networkx` graph, and
forwarding is store-and-forward across each directed link.

Loopback (sending to your own host) bypasses links with a fixed small
kernel delay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from ..simkernel import Environment
from .host import Host
from .link import Link
from .packet import Packet

__all__ = ["Network", "UnroutableError"]

LOOPBACK_DELAY_S = 50e-6


class UnroutableError(RuntimeError):
    """No path exists between two hosts."""


class Network:
    """The set of hosts and links sharing one simulated medium."""

    def __init__(self, env: Environment, seed: int = 0):
        self.env = env
        self.rng = np.random.default_rng(seed)
        self.hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._graph = nx.DiGraph()
        self._route_cache: Dict[Tuple[str, str], List[str]] = {}

    # -- construction ------------------------------------------------------
    def add_host(self, name: str, device=None) -> Host:
        """Create and register a host (optionally backed by a device)."""
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = Host(self.env, name, self, device)
        self.hosts[name] = host
        self._graph.add_node(name)
        self._route_cache.clear()
        return host

    def connect(
        self,
        a: str,
        b: str,
        bandwidth_bps: float,
        latency_s: float,
        jitter_s: float = 0.0,
        loss: float = 0.0,
    ) -> Tuple[Link, Link]:
        """Create a duplex link between hosts ``a`` and ``b``."""
        for name in (a, b):
            if name not in self.hosts:
                raise KeyError(f"unknown host {name!r}")
        if (a, b) in self._links:
            raise ValueError(f"link {a}<->{b} already exists")
        ab = Link(self.env, a, b, bandwidth_bps, latency_s, jitter_s, loss, rng=self.rng)
        ba = Link(self.env, b, a, bandwidth_bps, latency_s, jitter_s, loss, rng=self.rng)
        self._links[(a, b)] = ab
        self._links[(b, a)] = ba
        self._graph.add_edge(a, b, latency=latency_s)
        self._graph.add_edge(b, a, latency=latency_s)
        self._route_cache.clear()
        return ab, ba

    def link(self, src: str, dst: str) -> Link:
        """The directed link from ``src`` to ``dst`` (adjacent hosts)."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst}") from None

    def configure_link(self, a: str, b: str, **params) -> None:
        """Reconfigure both directions between ``a`` and ``b`` (netem-style).

        Accepted params: ``bandwidth_bps``, ``latency_s``, ``jitter_s``,
        ``loss``, ``burst_loss``, ``p_enter_burst``, ``p_exit_burst``.
        """
        self.link(a, b).configure(**params)
        self.link(b, a).configure(**params)
        if "latency_s" in params and params["latency_s"] is not None:
            self._graph[a][b]["latency"] = params["latency_s"]
            self._graph[b][a]["latency"] = params["latency_s"]

    # -- routing & transmission ---------------------------------------------
    def route(self, src: str, dst: str) -> List[str]:
        """Host names along the path from ``src`` to ``dst`` (inclusive)."""
        key = (src, dst)
        path = self._route_cache.get(key)
        if path is None:
            try:
                path = nx.shortest_path(self._graph, src, dst, weight="latency")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                raise UnroutableError(f"no route {src} -> {dst}") from None
            self._route_cache[key] = path
        return path

    def send(self, packet: Packet) -> None:
        """Inject a packet at its source host and forward it to ``dst``."""
        src_name, dst_name = packet.src[0], packet.dst[0]
        if src_name not in self.hosts:
            raise KeyError(f"unknown source host {src_name!r}")
        if dst_name not in self.hosts:
            raise KeyError(f"unknown destination host {dst_name!r}")
        src_host = self.hosts[src_name]
        dst_host = self.hosts[dst_name]

        if src_name == dst_name:  # loopback
            self.env.call_later(LOOPBACK_DELAY_S, dst_host.deliver, packet)
            return

        path = self.route(src_name, dst_name)
        src_host.notify_transmit(packet)
        self._forward(packet, path, 0, dst_host)

    def _forward(self, packet: Packet, path: List[str], hop: int, dst_host: Host) -> None:
        link = self._links[(path[hop], path[hop + 1])]
        last_hop = hop + 2 == len(path)
        if last_hop:
            link.send(packet, dst_host.deliver)
        else:
            link.send(
                packet,
                lambda p, _hop=hop: self._forward(p, path, _hop + 1, dst_host),
            )

    # -- inspection ----------------------------------------------------------
    def total_link_bytes(self) -> int:
        """Bytes serialized across all links (both directions)."""
        return int(sum(l.tx_bytes.total for l in self._links.values()))

    def __repr__(self) -> str:
        return f"<Network hosts={len(self.hosts)} links={len(self._links) // 2}>"
