"""Property-based tests on core invariants (hypothesis).

These target the data structures and protocols whose correctness the
evaluation numbers silently depend on: the simulation kernel's clock and
mailbox, TCP stream integrity under arbitrary chunking, topic matching,
the grouping buffer's no-loss invariant, and the query engine against a
reference implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Environment, Mailbox


# -- kernel: time never goes backwards; timeouts fire in order -------------


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=30))
@settings(max_examples=100, deadline=None)
def test_kernel_fires_timeouts_in_nondecreasing_order(delays):
    env = Environment()
    fired = []

    def waiter(env, d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(waiter(env, d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=40))
@settings(max_examples=100, deadline=None)
def test_store_is_fifo_for_any_interleaving(items):
    env = Environment()
    box = Mailbox(env)
    received = []

    def producer(env):
        for item in items:
            box.put_nowait(item)
            yield env.timeout(0.01)

    def consumer(env):
        for _ in items:
            value = yield box.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


# -- TCP: stream integrity under arbitrary chunking -------------------------


@given(
    st.lists(st.binary(min_size=1, max_size=4000), min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_tcp_delivers_any_chunk_sequence_in_order(chunks, loss):
    from repro.net import Network

    env = Environment()
    net = Network(env, seed=4)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", bandwidth_bps=1e8, latency_s=0.002, loss=loss)
    listener = net.hosts["b"].tcp_listen(80)
    total = sum(len(c) for c in chunks)
    received = bytearray()

    def server(env):
        conn = yield listener.accept()
        while len(received) < total:
            data = yield conn.recv()
            if not data:
                break
            received.extend(data)

    def client(env):
        conn = yield from net.hosts["a"].tcp_connect(("b", 80))
        for chunk in chunks:
            conn.send(chunk)
            yield env.timeout(0.001)

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert bytes(received) == b"".join(chunks)


# -- topic matching: algebraic properties ------------------------------------


topic_level = st.text(alphabet="abcz09", min_size=1, max_size=4)
topics = st.lists(topic_level, min_size=1, max_size=5).map("/".join)


@given(topics)
@settings(max_examples=100, deadline=None)
def test_topic_matches_itself(topic):
    from repro.mqttsn import topic_matches

    assert topic_matches(topic, topic)


@given(topics)
@settings(max_examples=100, deadline=None)
def test_hash_wildcard_matches_everything(topic):
    from repro.mqttsn import topic_matches

    assert topic_matches("#", topic)


@given(topics, st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_plus_wildcard_matches_any_single_level(topic, position):
    from repro.mqttsn import topic_matches

    levels = topic.split("/")
    position = min(position, len(levels) - 1)
    pattern_levels = list(levels)
    pattern_levels[position] = "+"
    assert topic_matches("/".join(pattern_levels), topic)


# -- consistent hashing: resizing by one node remaps only ~1/K of keys --------


ring_keys = [f"provlight/dev-{i}/data" for i in range(600)]


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=24, deadline=None)
def test_hash_ring_grow_only_moves_keys_to_the_new_node(k):
    """Adding node K to a K-node ring never reshuffles between the old
    nodes: a key either keeps its owner or moves to the new node (the
    property that makes pool/shard resizing cheap)."""
    from repro.hashring import ConsistentHashRing

    before = ConsistentHashRing(k, salt="worker")
    after = ConsistentHashRing(k + 1, salt="worker")
    moved = 0
    for key in ring_keys:
        old, new = before.node_for(key), after.node_for(key)
        if old != new:
            moved += 1
            assert new == k  # only the new node gains keys
    # ~1/(K+1) of keys move (crc32 + 32 virtual points wobbles, so allow
    # a generous factor; the seed-style full reshuffle would move ~K/(K+1))
    assert moved <= len(ring_keys) * 2.5 / (k + 1)
    assert moved > 0  # the new node did take over some arcs


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=24, deadline=None)
def test_hash_ring_shrink_only_reassigns_the_removed_nodes_keys(k):
    from repro.hashring import ConsistentHashRing

    big = ConsistentHashRing(k + 1, salt="shard")
    small = ConsistentHashRing(k, salt="shard")
    for key in ring_keys:
        if big.node_for(key) != k:  # not on the removed node
            assert small.node_for(key) == big.node_for(key)


@given(st.sampled_from(ring_keys))
@settings(max_examples=50, deadline=None)
def test_translator_pool_and_broker_cluster_share_the_ring_scheme(key):
    """The pool's topic sharding and the cluster's client-id sharding are
    the same pure ring function — so both planes inherit the stability
    properties proven above."""
    from repro.core import CallableBackend, ProvLightServer, ServerConfig
    from repro.hashring import ConsistentHashRing
    from repro.mqttsn import BrokerCluster
    from repro.net import Network

    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(lambda r: None),
        port=2000, config=ServerConfig(workers=4, broker_shards=4),
    )
    assert (
        server.pool.worker_for(key)
        is server.pool.workers[ConsistentHashRing(4, salt="worker").node_for(key)]
    )
    cluster = server.broker
    assert isinstance(cluster, BrokerCluster)
    assert cluster.shard_of(key) == ConsistentHashRing(4, salt="shard").node_for(key)


# -- weighted ring + p2c placement + autoscaler ------------------------------


@given(
    st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
             min_size=2, max_size=8),
)
@settings(max_examples=30, deadline=None)
def test_weighted_ring_key_share_tracks_weights(weights):
    """A node's share of keys grows with its weight: the heaviest-weight
    node never ends up owning fewer keys than a node at a quarter of its
    weight would predict, and every node gets the deterministic point
    count ``max(1, round(replicas * weight))``."""
    from repro.hashring import ConsistentHashRing

    ring = ConsistentHashRing(len(weights), salt="shard", weights=weights)
    for node, weight in enumerate(weights):
        assert ring.weight_of(node) == weight
    counts = {node: 0 for node in range(len(weights))}
    for key in ring_keys:
        counts[ring.node_for(key)] += 1
    expected_points = [max(1, round(ring.replicas * w)) for w in weights]
    point_counts = {node: 0 for node in range(len(weights))}
    for node in ring._nodes:
        point_counts[node] += 1
    assert [point_counts[n] for n in range(len(weights))] == expected_points
    # distribution check, deliberately loose (crc32 arcs wobble): a node
    # with 16x the weight of another must own at least as many keys
    for heavy in range(len(weights)):
        for light in range(len(weights)):
            if weights[heavy] >= 16 * weights[light]:
                assert counts[heavy] >= counts[light]


@given(st.integers(min_value=2, max_value=8))
@settings(max_examples=20, deadline=None)
def test_weight_one_ring_reproduces_unweighted_ownership(k):
    from repro.hashring import ConsistentHashRing

    plain = ConsistentHashRing(k, salt="shard")
    weighted = ConsistentHashRing(k, salt="shard", weights=[1.0] * k)
    for key in ring_keys:
        assert plain.node_for(key) == weighted.node_for(key)


@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=8,
             unique=True),
    st.lists(st.integers(min_value=0, max_value=200), min_size=16, max_size=16),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_p2c_always_picks_a_live_candidate_preferring_lower_load(
    candidates, loads, seed
):
    """``pick_two_choices`` returns a member of ``candidates`` (never a
    dead shard: the cluster only passes live indices) and never prefers
    the strictly more-loaded of its two samples."""
    import random

    from repro.mqttsn.cluster import pick_two_choices

    rng = random.Random(seed)
    sampled = {}

    def load(i):
        sampled[i] = loads[i]
        return loads[i]

    chosen = pick_two_choices(candidates, load, rng)
    assert chosen in candidates
    if sampled:  # two distinct candidates were compared
        assert loads[chosen] == min(sampled.values())


@given(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=4, max_value=12),
)
@settings(max_examples=100, deadline=None)
def test_autoscaler_never_flaps_under_constant_load(queued, workers, ticks):
    """Under a constant offered load the autoscaler moves in one
    direction only and settles: after each resize the pool's per-worker
    load halves (grow) or at most doubles (shrink), so the hysteresis
    band (low <= high/2) guarantees the next decision is never the
    opposite one."""
    from repro.core.server import PoolAutoscaler

    scaler = PoolAutoscaler(1, 8, high_water=8.0, low_water=2.0, sustain=3)
    deltas = []
    for _ in range(ticks):
        delta = scaler.observe(queued, workers)
        deltas.append(delta)
        workers = max(1, min(8, workers + delta))
    nonzero = [d for d in deltas if d]
    assert len(set(nonzero)) <= 1  # never both grow and shrink
    # and it settles: once the per-worker load is in band, no more moves
    per_worker = queued / workers
    if 2.0 <= per_worker <= 8.0:
        tail = []
        for _ in range(8):
            tail.append(scaler.observe(queued, workers))
        assert tail == [0] * 8


# -- grouping: no record lost or duplicated for any group size ----------------


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=60))
@settings(max_examples=200, deadline=None)
def test_group_buffer_conserves_records(group_size, n_records):
    from repro.core import GroupBuffer

    buf = GroupBuffer(group_size)
    out = []
    for i in range(n_records):
        group = buf.add({"i": i})
        if group:
            out.extend(group)
    final = buf.flush()
    if final:
        out.extend(final)
    assert [r["i"] for r in out] == list(range(n_records))


# -- query engine vs reference implementation ----------------------------------


rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.integers(min_value=0, max_value=50),
            "value": st.floats(min_value=-100, max_value=100, allow_nan=False),
            "group": st.sampled_from(["a", "b", "c"]),
        }
    ),
    max_size=40,
)


@given(rows_strategy, st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_query_where_matches_reference_filter(rows, threshold):
    from repro.dfanalyzer import ColumnStore, Query

    store = ColumnStore()
    table = store.create_table("t")
    for row in rows:
        table.insert(row)
    measured = Query(store, "t").where("value", ">", threshold).rows()
    expected = [r for r in rows if r["value"] > threshold]
    assert [m["id"] for m in measured] == [e["id"] for e in expected]


@given(rows_strategy, st.integers(min_value=0, max_value=10))
@settings(max_examples=100, deadline=None)
def test_query_order_limit_matches_reference(rows, k):
    from repro.dfanalyzer import ColumnStore, Query

    store = ColumnStore()
    table = store.create_table("t")
    for row in rows:
        table.insert(row)
    measured = [r["value"] for r in Query(store, "t").order_by("value", desc=True).limit(k).rows()]
    expected = sorted((r["value"] for r in rows), reverse=True)[:k]
    assert measured == expected


# -- statistics: CI contains the mean; overhead sign ----------------------------


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_mean_ci_brackets_the_mean(values):
    from repro.metrics import mean_ci

    ci = mean_ci(values)
    assert ci.low <= ci.mean <= ci.high
    assert ci.halfwidth >= 0


@given(st.floats(min_value=0.01, max_value=1e5, allow_nan=False),
       st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_relative_overhead_sign(with_capture, without):
    from repro.metrics import relative_overhead

    overhead = relative_overhead(with_capture, without)
    if with_capture > without:
        assert overhead > 0
    elif with_capture < without:
        assert overhead < 0
    else:
        assert overhead == 0


# -- energy: monotonicity ---------------------------------------------------------


@given(st.lists(st.integers(min_value=1, max_value=10_000), max_size=20))
@settings(max_examples=50, deadline=None)
def test_energy_monotonic_in_transmitted_bytes(sizes):
    from repro.calibration import A8M3_ENERGY
    from repro.device import A8M3, Cpu, EnergyMeter

    env = Environment()
    meter = EnergyMeter(env, A8M3_ENERGY, Cpu(env, A8M3))
    last = meter.energy_joules()
    for size in sizes:
        meter.on_transmit(size)
        current = meter.energy_joules()
        assert current >= last
        last = current
