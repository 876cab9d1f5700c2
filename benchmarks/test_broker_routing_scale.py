"""Microbenchmarks: broker routing and translator sharding at 1000 topics.

The seed broker routed each PUBLISH with an O(sessions x subscriptions)
linear scan and the server spawned one subscriber client per topic.
These benchmarks pit that layout against this repo's replacements — the
:class:`~repro.mqttsn.topics.SubscriptionIndex` (exact hash map +
wildcard trie) and the fixed-size :class:`~repro.core.TranslatorPool` —
at the scale the paper's Table IX argument points towards: 1000
per-device topics served by 4 pool workers.

``test_routing_index_speedup_at_1000_topics`` pins the acceptance bar
(>=5x over the seed scan); ``scripts/run_benchmarks.py`` records the
measured ratio in ``BENCH_microbench_codecs.json``.
"""

import time

from repro.core import CallableBackend, ProvLightServer, ServerConfig
from repro.device import XEON_GOLD_5220, Device
from repro.mqttsn import SubscriptionIndex, topic_matches
from repro.net import Network
from repro.simkernel import Environment

N_TOPICS = 1000
POOL_WORKERS = 4

#: topic hit mid-registry: the seed scan pays half the session list even
#: on a hit, the index pays one hash lookup plus a short trie walk
PROBE_TOPIC = f"provlight/dev-{N_TOPICS // 2}/data"


def sessions_with_1000_topics():
    """Seed layout: one subscriber session per device topic, plus the two
    wildcard monitors a dashboard deployment adds."""
    sessions = {}
    for i in range(N_TOPICS):
        sessions[("cloud", 40000 + i)] = [(f"provlight/dev-{i}/data", 2)]
    sessions[("cloud", 39998)] = [("provlight/+/data", 1)]
    sessions[("cloud", 39999)] = [("provlight/#", 0)]
    return sessions


def linear_route(sessions, topic):
    """The seed broker's ``_forward`` loop, kept as the perf baseline."""
    out = []
    for key, subs in sessions.items():
        for pattern, qos in subs:
            if topic_matches(pattern, topic):
                out.append((key, qos))
                break  # one delivery per client even with overlapping subs
    return out


def build_index(sessions):
    index = SubscriptionIndex()
    for key, subs in sessions.items():
        for pattern, qos in subs:
            index.add(key, pattern, qos)
    return index


def test_route_1000_topics_linear_scan_baseline(benchmark):
    sessions = sessions_with_1000_topics()
    matches = benchmark(linear_route, sessions, PROBE_TOPIC)
    assert len(matches) == 3  # the device subscriber + both wildcards


def test_route_1000_topics_index(benchmark):
    sessions = sessions_with_1000_topics()
    index = build_index(sessions)
    matches = benchmark(index.match, PROBE_TOPIC)
    # same result set as the seed scan (order differs: subscription age)
    assert dict(matches) == dict(linear_route(sessions, PROBE_TOPIC))


def test_index_maintenance_1000_subscribe_disconnect(benchmark):
    sessions = sessions_with_1000_topics()

    def churn():
        index = build_index(sessions)
        for key in sessions:
            index.remove(key)
        return index

    index = benchmark(churn)
    assert index.match(PROBE_TOPIC) == []


def test_routing_index_speedup_at_1000_topics():
    """Acceptance bar: the index routes >=5x faster than the seed scan."""
    sessions = sessions_with_1000_topics()
    index = build_index(sessions)
    probes = [f"provlight/dev-{i}/data" for i in range(0, N_TOPICS, 97)]

    def best_of(fn, repeats=5, iterations=20):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(iterations):
                for topic in probes:
                    fn(topic)
            best = min(best, time.perf_counter() - start)
        return best

    scan_s = best_of(lambda topic: linear_route(sessions, topic))
    index_s = best_of(index.match)
    speedup = scan_s / index_s
    assert speedup >= 5.0, f"routing speedup only {speedup:.1f}x"


def _pool_world(workers):
    env = Environment()
    net = Network(env, seed=1)
    device = Device(env, XEON_GOLD_5220, name="cloud-dev")
    net.add_host("cloud", device=device)
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(lambda r: None),
        config=ServerConfig(workers=workers),
    )
    return env, server


def test_pool_shard_assignment_1000_topics(benchmark):
    env, server = _pool_world(POOL_WORKERS)
    topics = [f"provlight/dev-{i}/data" for i in range(N_TOPICS)]

    def assign():
        return [server.pool.worker_for(topic).index for topic in topics]

    assignment = benchmark(assign)
    shares = [assignment.count(w.index) for w in server.pool.workers]
    assert len(shares) == POOL_WORKERS
    assert all(share > 0 for share in shares)
    # consistent hashing keeps the heaviest shard well under a hot spot
    assert max(shares) < N_TOPICS * 0.6


def test_pool_subscribes_1000_topics_with_4_clients():
    """1000 topics x 4 workers versus the seed's 1000 subscriber clients:
    the pool keeps the broker at 4 sessions and still attaches every
    topic."""
    env, server = _pool_world(POOL_WORKERS)

    def scenario(env):
        for i in range(N_TOPICS):
            yield from server.pool.attach(f"provlight/dev-{i}/data")

    env.process(scenario(env))
    env.run()
    assert sum(len(w.topic_filters) for w in server.pool.workers) == N_TOPICS
    assert len(server.broker.sessions) == POOL_WORKERS
    assert len(server.broker.subscriptions) == N_TOPICS
