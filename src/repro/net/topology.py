"""Network topology: hosts, links and routing.

The experiments use a star (64 edge devices — one cloud server), but the
network supports arbitrary multi-hop topologies, and forwarding is
store-and-forward across each directed link.

Routing follows two rules:

* A route is a path of least total link latency (Dijkstra over the
  hosts' adjacency).  Among paths of equal total latency the one with
  fewer hops wins, then the one whose sequence of host names is
  lexicographically smallest, so a route never depends on the order the
  links were created in.
* A route is computed once per ``(src, dst)`` pair, on first use, and
  cached.  :meth:`Network.connect` and :meth:`Network.add_host` clear the
  cache; :meth:`Network.configure_link` with ``latency_s`` changes the
  link's timing and the weight later routes see, but not a route that
  is already cached.

:meth:`Network.send` forwards along one entry per host pair: the source
host, the first link and a chain of :class:`_Hop` that ends at the
destination host, built from the route on the pair's first packet and
dropped with the routes by ``connect`` and ``add_host``.  The entry holds
hosts, not bound methods: ``deliver`` is looked up when the packet goes
onto each link, and :meth:`Host.deliver` looks up the socket per packet,
so a wrapper set on a host's or a socket's instance sees every packet.

Every topology the experiments build (the star and
:class:`~repro.net.continuum.ContinuumTopology`) is a tree, so each route
is the unique path between its hosts.

Loopback (sending to your own host) bypasses links with a fixed small
kernel delay.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Dict, List, Tuple

# numpy loads numpy.random on first use; importing it here keeps that
# load out of the first run that builds a Network
from numpy.random import default_rng

from ..simkernel import Environment
from .host import Host
from .link import Link
from .packet import Packet

__all__ = ["Network", "UnroutableError"]

LOOPBACK_DELAY_S = 50e-6


class UnroutableError(RuntimeError):
    """No path exists between two hosts."""


class _Hop:
    """A packet's step through an intermediate host: it goes on ``link``
    towards ``next`` (the following hop, or the destination host)."""

    __slots__ = ("link", "next")

    def __init__(self, link: Link, next):
        self.link = link
        self.next = next

    def deliver(self, packet: Packet) -> None:
        # ``next.deliver`` is looked up per packet, so a wrapper set on
        # the destination host's instance sees every packet
        self.link.send(packet, self.next.deliver)


class Network:
    """The set of hosts and links sharing one simulated medium."""

    def __init__(self, env: Environment, seed: int = 0):
        self.env = env
        self.rng = default_rng(seed)
        self.hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: host -> {neighbour: link latency (s)}
        self._adjacency: Dict[str, Dict[str, float]] = {}
        #: routes asked for, by host pair
        self._route_cache: Dict[Tuple[str, str], List[str]] = {}
        #: forwarding entries, by host pair (see :meth:`_entry`)
        self._entries: Dict[Tuple[str, str], tuple] = {}
        #: numbers the default ids of the capture clients built on this
        #: network (``provlight-1``, ``provlight-2``, ...), so an id
        #: depends on the run alone, not on what the process ran before
        self.client_ids = itertools.count(1)

    # -- construction ------------------------------------------------------
    def add_host(self, name: str, device=None) -> Host:
        """Create and register a host (optionally backed by a device)."""
        if name in self.hosts:
            raise ValueError(f"host {name!r} already exists")
        host = Host(self.env, name, self, device)
        self.hosts[name] = host
        self._adjacency[name] = {}
        self._drop_routes()
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
        self._adjacency[a][b] = latency_s
        self._adjacency[b][a] = latency_s
        self._drop_routes()
        return ab, ba

    def _drop_routes(self) -> None:
        """Forget every route and forwarding entry (the graph grew)."""
        self._route_cache.clear()
        self._entries.clear()

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
            self._adjacency[a][b] = params["latency_s"]
            self._adjacency[b][a] = params["latency_s"]

    # -- routing & transmission ---------------------------------------------
    def route(self, src: str, dst: str) -> List[str]:
        """Host names along the path from ``src`` to ``dst`` (inclusive)."""
        key = (src, dst)
        path = self._route_cache.get(key)
        if path is None:
            path = self._route_cache[key] = self._shortest_path(src, dst)
        return path

    def _shortest_path(self, src: str, dst: str) -> List[str]:
        """Dijkstra from ``src``; heap entries order ties by hops, then names."""
        adjacency = self._adjacency
        if src in adjacency and dst in adjacency:
            heap: List[Tuple[float, int, Tuple[str, ...]]] = [(0.0, 0, (src,))]
            settled = set()
            while heap:
                dist, hops, path = heappop(heap)
                node = path[-1]
                if node == dst:
                    return list(path)
                if node in settled:
                    continue
                settled.add(node)
                for neighbour, latency in adjacency[node].items():
                    if neighbour not in settled:
                        heappush(heap, (dist + latency, hops + 1, path + (neighbour,)))
        raise UnroutableError(f"no route {src} -> {dst}")

    def _entry(self, src_name: str, dst_name: str) -> tuple:
        """The forwarding entry ``(source host, first link, next hop)`` of
        a host pair; the next hop is a :class:`_Hop` or the destination
        host, and the first link is None for loopback."""
        hosts = self.hosts
        if src_name not in hosts:
            raise KeyError(f"unknown source host {src_name!r}")
        if dst_name not in hosts:
            raise KeyError(f"unknown destination host {dst_name!r}")
        nxt = hosts[dst_name]
        if src_name == dst_name:
            return hosts[src_name], None, nxt
        path = self.route(src_name, dst_name)
        links = self._links
        for hop in range(len(path) - 2, 0, -1):
            nxt = _Hop(links[path[hop], path[hop + 1]], nxt)
        return hosts[src_name], links[path[0], path[1]], nxt

    def send(self, packet: Packet) -> None:
        """Inject a packet at its source host and forward it to ``dst``."""
        key = (packet.src[0], packet.dst[0])
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = self._entry(*key)
        host, link, nxt = entry
        if link is None:  # loopback
            self.env.call_later(LOOPBACK_DELAY_S, nxt.deliver, packet)
            return
        device = host.device
        if device is not None:
            device.radio.on_transmit(packet.size)
        link.send(packet, nxt.deliver)

    # -- inspection ----------------------------------------------------------
    def total_link_bytes(self) -> int:
        """Bytes serialized across all links (both directions)."""
        return int(sum(l.tx_bytes.total for l in self._links.values()))

    def __repr__(self) -> str:
        return f"<Network hosts={len(self.hosts)} links={len(self._links) // 2}>"
