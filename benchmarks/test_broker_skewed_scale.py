"""Skewed fan-in: placement policy decides how much shards help.

``test_broker_shard_scale.py`` measures the best case for hash
placement — client ids spread evenly, every shard gets its share.  This
file measures the adversarial population: a **Zipf-style skew** where
the 16 *heavy* publishers (50 messages each) carry client ids that all
hash onto the same ring node, plus 32 light publishers (10 messages
each) with unconstrained ids.  The ring-subset property of
:class:`~repro.hashring.ConsistentHashRing` (growing a ring only steals
keys for the new node) means ids chosen to clump on node 0 of the
8-ring clump on node 0 at every smaller shard count too, so the same
population is adversarial at 1, 4 and 8 shards.

Under ``placement="hash"`` the hot shard serves the heavy cohort
serially and extra shards barely help; ``placement="p2c"``
(power-of-two-choices on live shard load) spreads the same CONNECTs
nearly evenly and restores shard scaling.  Numbers out of this file:

* pytest-benchmark medians (wall-clock simulation cost, gated against
  the checked-in baseline);
* simulated ``msgs/s`` and the cluster's ``max_mean_session_ratio`` via
  ``benchmark.extra_info`` — machine-independent, the source of the
  ``broker_throughput_speedup_8_shards_over_1_skewed``,
  ``skewed_placement_gain_p2c_over_hash_8_shards`` and
  ``p2c_max_mean_session_ratio_8_shards`` headlines in
  ``BENCH_microbench_codecs.json``.

``test_p2c_beats_hash_on_skewed_population`` pins the ISSUE's
acceptance bars deterministically in simulated time.
"""

from dataclasses import dataclass

import pytest

from repro.hashring import ConsistentHashRing
from repro.mqttsn import BrokerCluster, MqttSnClient
from repro.net import Network
from repro.simkernel import Environment

N_HEAVY = 16
MSGS_HEAVY = 50
N_LIGHT = 32
MSGS_LIGHT = 10
TOTAL_MSGS = N_HEAVY * MSGS_HEAVY + N_LIGHT * MSGS_LIGHT

#: all publishers blast at this simulated instant, after the staggered
#: CONNECT/REGISTER exchanges have settled
BLAST_AT_S = 1.0

CASES = [(1, "hash"), (4, "hash"), (8, "hash"), (4, "p2c"), (8, "p2c")]


def heavy_ids(count: int) -> list:
    """Client ids that all hash onto node 0 of the 8-shard ring (and,
    by the ring-subset property, onto node 0 of every smaller ring)."""
    ring = ConsistentHashRing(8, salt="shard")
    out, i = [], 0
    while len(out) < count:
        candidate = f"heavy-{i}"
        if ring.node_for(candidate) == 0:
            out.append(candidate)
        i += 1
    return out


@dataclass
class SkewRunResult:
    shards: int
    placement: str
    delivered: int
    makespan_s: float
    max_mean_session_ratio: float

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.delivered / self.makespan_s


def run_skewed_workload(shards: int, placement: str) -> SkewRunResult:
    env = Environment()
    net = Network(env, seed=3)
    net.add_host("cloud")
    cluster = BrokerCluster(
        net.hosts["cloud"], shards=shards, placement=placement
    )

    done = {"at": None, "count": 0}

    def on_message(topic, payload):
        done["count"] += 1
        if done["count"] == TOTAL_MSGS:
            done["at"] = env.now

    net.add_host("monitor")
    net.connect("monitor", "cloud", bandwidth_bps=1e9, latency_s=0.0005)
    monitor = MqttSnClient(net.hosts["monitor"], "monitor", cluster.endpoint)

    def run_monitor(env):
        yield from monitor.connect()
        yield from monitor.subscribe("skew/#", on_message, qos=0)

    def run_publisher(env, client, index, slot, n_msgs):
        # stagger CONNECTs a little so load-aware placement reads the
        # plane as it fills (real fleets do not connect in one datagram)
        yield env.timeout(slot * 0.002)
        yield from client.connect()
        topic_id = yield from client.register(f"skew/dev-{index}/data")
        yield env.timeout(BLAST_AT_S - env.now)
        for m in range(n_msgs):
            client.publish_nowait(topic_id, b"m%05d" % m, qos=0)

    env.process(run_monitor(env))
    populations = (
        [(cid, MSGS_HEAVY) for cid in heavy_ids(N_HEAVY)]
        + [(f"light-{i}", MSGS_LIGHT) for i in range(N_LIGHT)]
    )
    for slot, (cid, n_msgs) in enumerate(populations):
        name = f"edge-{cid}"
        net.add_host(name)
        net.connect(name, "cloud", bandwidth_bps=1e9, latency_s=0.0005)
        client = MqttSnClient(net.hosts[name], cid, cluster.endpoint)
        env.process(run_publisher(env, client, cid, slot, n_msgs))
    env.run()

    assert done["at"] is not None, (
        f"only {done['count']}/{TOTAL_MSGS} messages delivered"
    )
    return SkewRunResult(
        shards=shards,
        placement=placement,
        delivered=done["count"],
        makespan_s=done["at"] - BLAST_AT_S,
        max_mean_session_ratio=cluster.max_mean_session_ratio(),
    )


@pytest.mark.parametrize("shards,placement", CASES)
def test_skewed_publish_throughput(benchmark, shards, placement):
    result = benchmark(run_skewed_workload, shards, placement)
    assert result.delivered == TOTAL_MSGS
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["placement"] = placement
    benchmark.extra_info["simulated_msgs_per_s"] = round(
        result.throughput_msgs_per_s, 1
    )
    benchmark.extra_info["simulated_makespan_ms"] = round(
        result.makespan_s * 1e3, 3
    )
    benchmark.extra_info["max_mean_session_ratio"] = round(
        result.max_mean_session_ratio, 3
    )


def test_p2c_beats_hash_on_skewed_population():
    """Acceptance bars, deterministic in simulated time:

    * at 8 shards, p2c placement's speedup over the single broker is at
      least 1.5x the hash placement's speedup on the same skewed
      population (hash strands the heavy cohort on one shard);
    * p2c keeps the session imbalance (max/mean per live shard) at or
      under 1.3.
    """
    one = run_skewed_workload(1, "hash")
    hash8 = run_skewed_workload(8, "hash")
    p2c8 = run_skewed_workload(8, "p2c")
    assert one.delivered == hash8.delivered == p2c8.delivered
    hash_speedup = hash8.throughput_msgs_per_s / one.throughput_msgs_per_s
    p2c_speedup = p2c8.throughput_msgs_per_s / one.throughput_msgs_per_s
    assert p2c_speedup >= 1.5 * hash_speedup, (
        f"p2c speedup {p2c_speedup:.2f}x < 1.5 x hash {hash_speedup:.2f}x"
    )
    assert p2c8.max_mean_session_ratio <= 1.3, (
        f"p2c session imbalance {p2c8.max_mean_session_ratio:.2f} > 1.3"
    )
