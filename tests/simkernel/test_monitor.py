"""Tests for measurement helpers."""

import json

from repro.simkernel import Counter, Environment, TimeWeighted


def test_time_weighted_mean_utilization():
    env = Environment()
    busy = TimeWeighted(env, 0)

    def proc(env):
        yield env.timeout(2)   # idle 0..2
        busy.value = 1
        yield env.timeout(6)   # busy 2..8
        busy.value = 0
        yield env.timeout(2)   # idle 8..10

    env.process(proc(env))
    env.run()
    assert busy.mean() == 0.6
    assert busy.integral() == 6.0


def test_time_weighted_add():
    env = Environment()
    queue_len = TimeWeighted(env, 0)

    def proc(env):
        queue_len.add(2)
        yield env.timeout(5)
        queue_len.add(-1)
        yield env.timeout(5)

    env.process(proc(env))
    env.run()
    # 2 for 5s then 1 for 5s = integral 15 over 10s
    assert queue_len.mean() == 1.5


def test_time_weighted_reset():
    env = Environment()
    v = TimeWeighted(env, 1)

    def proc(env):
        yield env.timeout(4)
        v.reset()
        yield env.timeout(4)

    env.process(proc(env))
    env.run()
    assert v.mean() == 1.0
    assert v.integral() == 4.0  # only since reset


def test_time_weighted_no_elapsed_time():
    env = Environment()
    v = TimeWeighted(env, 7)
    assert v.mean() == 7


def test_counter_records():
    c = Counter("bytes")
    c.record(100)
    c.record(50)
    assert c.count == 2
    assert c.total == 150
    c.reset()
    assert c.count == 0 and c.total == 0


def test_registry_counters_are_handles_summed_over_labels():
    env = Environment()
    a = env.metrics.counter("link", "tx_bytes", src="a", dst="b")
    b = env.metrics.counter("link", "tx_bytes", src="b", dst="a")
    env.metrics.counter("link", "dropped", src="a", dst="b").record()
    a.record(100)
    a.record(50)
    b.record(10)
    assert (a.count, a.total) == (2, 150)
    both = env.metrics.summed("link", "tx_bytes")
    assert (both.count, both.total) == (3, 160)
    assert env.metrics.summed("link", "tx_bytes", src="b").total == 10
    assert env.metrics.summed("link", "nothing").count == 0


def test_registry_events_are_stamped_with_sim_time():
    env = Environment()

    def proc(env):
        env.metrics.event("kill-shard", shard=1)
        yield env.timeout(2.5)
        env.metrics.event("failover", shard=1, migrated=3, dropped=0)

    env.process(proc(env))
    env.run()
    assert env.metrics.events("failover") == [
        {"t": 2.5, "kind": "failover", "shard": 1, "migrated": 3, "dropped": 0}
    ]
    assert [e["kind"] for e in env.metrics.events()] == ["kill-shard", "failover"]


def test_snapshot_is_plain_data_detached_from_the_run():
    env = Environment()
    counter = env.metrics.counter("capture", "records_captured", client="c")
    counter.record()
    env.metrics.event("reconnect", client="c")
    snapshot = env.metrics.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot == {
        "counters": [{"component": "capture", "name": "records_captured",
                      "labels": {"client": "c"}, "count": 1, "total": 1.0}],
        "events": [{"t": 0.0, "kind": "reconnect", "client": "c"}],
    }
    counter.record()
    env.metrics.event("reconnect", client="c")
    assert snapshot["counters"][0]["count"] == 1
    assert len(snapshot["events"]) == 1

