"""Elastic fan-in: a skewed burst autoscales the server, then it shrinks.

Six edge devices — their client ids deliberately chosen so classic
hash placement would pile every session onto one broker shard — fan
durable capture streams into a ProvLight server with the elastic plane
switched on: ``broker_placement="p2c"`` spreads the CONNECT burst by
live shard load, and the translator pool (``pool_min=2, pool_max=6``)
grows under the sustained ingest backlog, re-homing topic filters to
the new workers mid-stream, then shrinks back to its minimum once the
burst drains.  The run asserts the elasticity contract: the pool
actually scaled up *and* came back down, placement stayed balanced,
and every record was ingested exactly once, in per-task order, across
every worker handover.

The per-message translate cost is inflated (0.45 reference seconds;
the Xeon's io_speedup divides that to ~15 ms of service time) so a
handful of devices can saturate the minimum pool — real deployments
reach the same queue depths with thousands of devices instead.

Run with:  python examples/elastic_fanin.py
"""

import dataclasses
import shutil
import tempfile

from repro.calibration import SERVER_COSTS
from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, Data, ProvLightServer, ServerConfig, Task, Workflow
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.hashring import ConsistentHashRing
from repro.net import Network
from repro.simkernel import Environment

N_DEVICES = 6
N_TASKS = 30
RECORDS_PER_DEVICE = 2 + 2 * N_TASKS  # wf begin/end + task begin/end pairs


def clumped_ids(count: int, shards: int = 4) -> list:
    """Client ids that all hash onto shard 0 — the population that makes
    pure hash placement collapse onto one shard."""
    ring = ConsistentHashRing(shards, salt="shard")
    out, i = [], 0
    while len(out) < count:
        candidate = f"edge-{i}"
        if ring.node_for(candidate) == 0:
            out.append(candidate)
        i += 1
    return out


def main() -> None:
    # --- 1. skewed edge fleet -> elastic ProvLight server ------------------
    env = Environment()
    net = Network(env, seed=42)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-server"))
    stored = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(stored.extend),
        config=ServerConfig(workers=2, broker_shards=4, broker_placement="p2c",
                            pool_min=2, pool_max=6),
        costs=dataclasses.replace(SERVER_COSTS, translate_per_message_s=0.45),
    )
    cluster = server.broker

    journal_dir = tempfile.mkdtemp(prefix="provlight-elastic-")
    clients = []
    for cid in clumped_ids(N_DEVICES):
        dev = Device(env, A8M3, name=cid)
        net.add_host(cid, device=dev)
        # low-latency uplinks: the burst must outpace the pool's minimum
        net.connect(cid, "cloud", bandwidth_bps=1e9, latency_s=0.0005)
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=journal_dir,
            client_id=cid, qos=1,
        )
        client = create_client(dev, server.endpoint, f"provlight/{cid}/data", config)
        clients.append(client)

    # --- 2. the instrumented burst -----------------------------------------
    finished = []
    pool_sizes = []

    def workload(env, idx, client):
        topic = f"provlight/{client.config.client_id}/data"
        yield from server.pool.attach(topic)
        # stagger the CONNECTs a little so load-aware placement reads
        # the plane as it fills (a fleet never connects in one datagram)
        yield env.timeout(idx * 0.005)
        yield from client.setup()
        wf_id = idx + 1
        workflow = Workflow(wf_id, client)
        yield from workflow.begin()
        for i in range(1, N_TASKS + 1):
            task = Task(i, workflow)
            yield from task.begin([Data(f"d{idx}-in{i}", wf_id, {"x": [1.0] * 4})])
            yield env.timeout(0.01)
            yield from task.end([Data(f"d{idx}-out{i}", wf_id, {"y": [2.0] * 4})])
        yield from workflow.end(drain=True)
        finished.append(idx)

    def sampler(env):
        # watch the pool through the burst, then through the shrink
        while len(finished) < N_DEVICES or server.pool.queued:
            pool_sizes.append(len(server.pool))
            yield env.timeout(0.1)
        for _ in range(80):
            pool_sizes.append(len(server.pool))
            yield env.timeout(0.1)

    for i, client in enumerate(clients):
        env.process(workload(env, i, client))
    env.process(sampler(env))
    env.run(until=600)

    # --- 3. the elasticity contract asserted -------------------------------
    expected = N_DEVICES * RECORDS_PER_DEVICE
    captured = sum(c.records_captured.count for c in clients)
    stats = cluster.stats()
    pool = server.pool.stats()
    print("=== elastic fan-in: skewed burst, autoscale up then back down ===")
    print(f"simulated time          : {env.now:.3f}s")
    print(f"placement               : {stats['placement']} "
          f"(p2c placements {cluster.p2c_placements.count}, "
          f"session imbalance max/mean {stats['max_mean_session_ratio']:.2f})")
    print(f"pool trajectory         : min {pool['min_workers']} -> "
          f"peak {max(pool_sizes)} -> final {pool['size']} "
          f"(grows {pool['grows']}, shrinks {pool['shrinks']}, "
          f"filters re-homed {server.pool.migrated_filters.count})")
    print(f"records captured        : {captured}")
    print(f"records at backend      : {len(stored)}")

    assert len(finished) == N_DEVICES, "a workload never finished its drain"
    assert cluster.p2c_placements.count >= N_DEVICES
    assert stats["max_mean_session_ratio"] <= 1.75, "p2c left the plane skewed"
    assert server.pool.grows.count >= 1, "the burst never grew the pool"
    assert max(pool_sizes) > pool["min_workers"], "pool never ran above min"
    assert pool["size"] == pool["min_workers"], "pool did not shrink back"
    assert server.pool.shrinks.count >= 1
    assert server.pool.queued == 0
    assert captured == expected
    assert len(stored) == expected, "records lost or doubled mid-handover!"
    # per-task order survived every worker handover
    seen = {}
    for record in stored:
        if record["type"] != "task":
            continue
        key = (record["dataflow_tag"], record["task_id"])
        if record["status"] == "RUNNING":
            assert key not in seen, f"task {key} began twice"
            seen[key] = "RUNNING"
        else:
            assert seen.get(key) == "RUNNING", f"task {key} ended before it began"
            seen[key] = "FINISHED"
    print("\nelastic: scaled up under the burst, back to min when idle, "
          "exactly-once throughout.")

    for client in clients:
        client.close()
    server.deduper.close()
    shutil.rmtree(journal_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
