"""Property tests for the fault-tolerant server plane.

Two invariants the failover machinery silently depends on:

* removing an arbitrary ring node (shard failover) only reassigns keys
  the dead node owned — survivors never swap keys among themselves;
* a translator worker crashing at arbitrary times — including backend
  ingest failures — never reorders or duplicates a client's seq stream:
  the requeue is prepended, the dedup marks only land after the backend
  accepts, so ingestion stays exactly-once *and* in order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.envelope import wrap_payload
from repro.core import ProvLightServer, encode_payload
from repro.hashring import ConsistentHashRing
from repro.net import Network
from repro.simkernel import Environment

ring_keys = [f"client-{i}" for i in range(200)]


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_remove_node_only_reassigns_the_dead_nodes_keys(k, dead):
    dead = dead % k
    before = ConsistentHashRing(k, salt="shard")
    after = ConsistentHashRing(k, salt="shard")
    after.remove_node(dead)
    assert dead not in after.live_nodes()
    for key in ring_keys:
        old = before.node_for(key)
        new = after.node_for(key)
        if old != dead:
            assert new == old  # survivors keep their keys
        else:
            assert new != dead  # orphans land on some survivor


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=20, deadline=None)
def test_remove_node_refuses_to_empty_the_ring(k):
    import pytest

    ring = ConsistentHashRing(k, salt="shard")
    for node in range(k - 1):
        ring.remove_node(node)
    assert ring.live_nodes() == [k - 1]
    with pytest.raises(ValueError):
        ring.remove_node(k - 1)


def record(client, seq):
    return {
        "kind": "task_end", "workflow_id": 1, "task_id": seq,
        "transformation_id": 0, "dependencies": [], "time": float(seq),
        "status": "finished",
        "data": [{"id": f"{client}-{seq}", "workflow_id": 1,
                  "derivations": [], "attributes": {"v": seq}}],
    }


@given(
    n_records=st.integers(min_value=4, max_value=24),
    crash_times=st.lists(
        st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
        max_size=4, unique=True,
    ),
    fail_calls=st.sets(st.integers(min_value=0, max_value=30), max_size=4),
    feed_gap_ms=st.integers(min_value=0, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_worker_crashes_never_reorder_a_clients_seq_stream(
    n_records, crash_times, fail_calls, feed_gap_ms
):
    """Feed a worker seqs 1..N for two clients while crashing its work
    loop at arbitrary times and failing arbitrary backend calls: every
    record must be ingested exactly once, per client in seq order."""
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    ingested = []

    # a backend that fails whole calls *before* any delivery: the worker
    # re-processes the batch, so a mid-batch partial delivery can't occur
    class FlakyBackend:
        def __init__(self):
            self.calls = 0

        def ingest_batch(self, batch):
            index = self.calls
            self.calls += 1
            if index in fail_calls:
                raise RuntimeError(f"backend rejected call {index}")
            for translated in batch:
                ingested.append(translated)
            return ()

    server = ProvLightServer(net.hosts["cloud"], FlakyBackend())
    worker = server.pool.workers[0]
    worker.restart_base_s = 0.005
    worker.restart_max_s = 0.02

    def feeder(env):
        for seq in range(1, n_records + 1):
            for client in ("edge-a", "edge-b"):
                wire = wrap_payload(client, seq, encode_payload(record(client, seq)))
                worker._inbox.put_nowait((f"conf/{client}/data", wire))
            if feed_gap_ms:
                yield env.timeout(feed_gap_ms / 1000.0)
        if not feed_gap_ms:
            yield env.timeout(0)

    def chaos(env):
        for t in sorted(crash_times):
            delay = t - env.now
            if delay > 0:
                yield env.timeout(delay)
            worker.crash()

    env.process(feeder(env))
    env.process(chaos(env))
    env.run(until=120)

    # extract each client's ingested seq stream from the translated output
    streams = {"edge-a": [], "edge-b": []}
    for translated in ingested:
        for task in translated:
            tag = task["datasets"][0]["tag"]  # "<client>-<seq>"
            client, _, seq = tag.rpartition("-")
            streams[client].append(int(seq))
    for client, seqs in streams.items():
        assert seqs == list(range(1, n_records + 1)), (
            f"{client}: got {seqs} (crashes={sorted(crash_times)}, "
            f"failed_calls={sorted(fail_calls)})"
        )
    assert server.front.ingested.total == 2 * n_records
