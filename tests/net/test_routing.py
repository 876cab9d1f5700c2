"""Network.route against networkx as an oracle, plus the route-cache rule
and the forwarding entries' invalidation.

networkx is a test-only dependency here: routing itself is a heap-based
Dijkstra over ``Network``'s adjacency dict.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import TOPOLOGY_PRESETS, ContinuumTopology, Network, TopologySpec
from repro.net.topology import UnroutableError
from repro.simkernel import Environment


@st.composite
def connected_graphs(draw, latencies):
    """``(n_hosts, edges)``: a random spanning tree plus extra edges, each
    edge ``(a, b, latency_s)`` with ``latency_s`` drawn from ``latencies``."""
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    spare = [(a, b) for b in range(n) for a in range(b) if (a, b) not in pairs]
    if spare:
        pairs += draw(st.lists(st.sampled_from(spare), unique=True, max_size=len(spare)))
    pairs = draw(st.permutations(pairs))
    weights = draw(latencies(len(pairs)))
    return n, [(f"h{a}", f"h{b}", w) for (a, b), w in zip(pairs, weights)]


def distinct_latencies(k):
    """Distinct powers of two: every path has its own total, so every
    shortest path is unique."""
    return st.permutations([2.0 ** -i for i in range(k)])


def tied_latencies(k):
    return st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=k, max_size=k)


def build(n, edges):
    net = Network(Environment())
    for i in range(n):
        net.add_host(f"h{i}")
    for a, b, w in edges:
        net.connect(a, b, bandwidth_bps=1e9, latency_s=w)
    return net


def oracle(net):
    """A networkx graph of ``net``'s links and their latencies."""
    graph = nx.DiGraph()
    graph.add_nodes_from(net.hosts)
    for (a, b), link in net._links.items():
        graph.add_edge(a, b, latency=link.latency_s)
    return graph


def pairs(net):
    return [(s, t) for s in net.hosts for t in net.hosts if s != t]


@settings(max_examples=150, deadline=None)
@given(connected_graphs(distinct_latencies))
def test_unique_shortest_paths_match_networkx(graph):
    net = build(*graph)
    g = oracle(net)
    for s, t in pairs(net):
        assert net.route(s, t) == nx.shortest_path(g, s, t, weight="latency")


@settings(max_examples=150, deadline=None)
@given(connected_graphs(tied_latencies), st.randoms(use_true_random=False))
def test_ties_go_to_fewer_hops_then_smaller_names(graph, rnd):
    n, edges = graph
    net = build(n, edges)
    g = oracle(net)
    shuffled = list(edges)
    rnd.shuffle(shuffled)
    rebuilt = build(n, shuffled)
    for s, t in pairs(net):
        path = net.route(s, t)
        assert nx.is_simple_path(g, path)
        assert nx.path_weight(g, path, "latency") == nx.shortest_path_length(
            g, s, t, weight="latency")
        best = min(nx.all_shortest_paths(g, s, t, weight="latency"),
                   key=lambda p: (len(p), p))
        assert path == best
        # the route does not depend on the order links were created in
        assert rebuilt.route(s, t) == path


def star(n_devices):
    net = Network(Environment())
    net.add_host("cloud")
    for i in range(n_devices):
        net.add_host(f"edge-{i}")
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    return net


def continuum(spec, n_devices=None):
    net = Network(Environment())
    net.add_host("cloud")
    spec = TopologySpec.parse(spec)
    if n_devices is not None:
        spec = spec.scaled(n_devices)
    ContinuumTopology(net, spec, root_host="cloud")
    return net


#: every topology tests, examples and the benchmark workloads build
BUILT_TOPOLOGIES = {
    "star-64": lambda: star(64),
    "star-1": lambda: star(1),
    **{f"preset-{name}": (lambda name=name: continuum(name)) for name in TOPOLOGY_PRESETS},
    "constrained-edge-12": lambda: continuum("constrained-edge", 12),
    **{spec: (lambda spec=spec: continuum(spec)) for spec in (
        "edge:32:wan-fog,fog:4:wan-fog,cloud:1",
        "edge:4:wan-fog,fog:2:wan-fog,cloud:1",
        "edge:8:lossy-wireless,fog:2:wan-fog,cloud:1",
        "edge:6:constrained-edge,fog:2,cloud:1",
        "edge:2,fog:1,cloud:1",
        "edge:2:lossy-wireless,cloud:1",
        "edge:1,cloud:1",
        "edge:3,cloud:1",
    )},
}


@pytest.mark.parametrize("name", sorted(BUILT_TOPOLOGIES))
def test_built_topologies_route_as_networkx(name):
    net = BUILT_TOPOLOGIES[name]()
    g = oracle(net)
    for s, t in pairs(net):
        assert net.route(s, t) == nx.shortest_path(g, s, t, weight="latency")


def test_islands_and_unknown_hosts_are_unroutable():
    net = build(3, [("h0", "h1", 0.01)])
    for s, t in [("h0", "h2"), ("h2", "h1"), ("h0", "nowhere"), ("nowhere", "h0")]:
        with pytest.raises(UnroutableError):
            net.route(s, t)


def test_route_is_cached_until_connect_or_add_host():
    """``configure_link(latency_s=...)`` reweights the link but keeps a
    cached route; ``connect`` and ``add_host`` clear every cached route.
    A route first asked for after a reweighting sees the new weight."""
    net = build(3, [("h0", "h1", 0.01), ("h1", "h2", 0.01), ("h0", "h2", 0.05)])
    assert net.route("h0", "h2") == ["h0", "h1", "h2"]
    net.configure_link("h0", "h1", latency_s=1.0)
    assert net.link("h0", "h1").latency_s == 1.0
    assert net.route("h0", "h2") == ["h0", "h1", "h2"]  # cached
    assert net.route("h2", "h0") == ["h2", "h0"]  # first use sees the new weight
    # so does a first use from a source that already has a cached route
    assert net.route("h0", "h1") == ["h0", "h2", "h1"]
    net.add_host("h3")
    assert net.route("h0", "h2") == ["h0", "h2"]
    net.configure_link("h0", "h2", latency_s=2.0)
    assert net.route("h0", "h2") == ["h0", "h2"]  # cached
    net.connect("h3", "h0", bandwidth_bps=1e9, latency_s=0.01)
    assert net.route("h0", "h2") == ["h0", "h1", "h2"]


def test_packets_follow_the_cached_route_until_connect():
    """A packet takes its pair's cached route, also after a reweighting;
    ``connect`` drops the forwarding entries, so the next packet takes
    the shorter path the new link makes."""
    net = build(3, [("h0", "h1", 0.01), ("h1", "h2", 0.01)])
    env = net.env
    arrivals = []
    sink = net.hosts["h2"].udp_socket(7)

    def receive(datagram):
        arrivals.append((env.now, datagram[0]))
        sink.on_item(receive)

    sink.on_item(receive)
    sender = net.hosts["h0"].udp_socket()
    sender.sendto(b"a", ("h2", 7))
    env.run()
    net.configure_link("h1", "h2", latency_s=0.5)
    sender.sendto(b"b", ("h2", 7))
    env.run()
    net.connect("h0", "h2", bandwidth_bps=1e9, latency_s=0.05)
    sender.sendto(b"c", ("h2", 7))
    env.run()
    assert [payload for _, payload in arrivals] == [b"a", b"b", b"c"]
    assert net.link("h0", "h1").tx_bytes.count == 2
    assert net.link("h1", "h2").tx_bytes.count == 2
    assert net.link("h0", "h2").tx_bytes.count == 1
    assert arrivals[2][0] - arrivals[1][0] < 0.06  # direct, not via h1

