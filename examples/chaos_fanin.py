"""Chaos fan-in: a broker shard dies and the backend flaps, nothing is lost.

Four edge devices fan durable capture streams into a ProvLight server
whose broker plane runs four shards behind one endpoint and whose
backend is a remote HTTP provenance API.  Mid-stream the chaos harness
kills the busiest shard (the cluster watchdog fails it over: sessions
re-home, dropped publishers reconnect onto survivors and replay from
their journals) and flaps the server-to-backend uplink (the circuit
breaker opens, ingests spill into the bounded queue, and the drain
delivers the backlog once the link heals).  The run asserts full
recovery: every captured record reaches the backend exactly once.

Run with:  python examples/chaos_fanin.py
"""

import json
import shutil
import tempfile

from repro.capture import CaptureConfig, create_client
from repro.core import (
    CircuitBreaker,
    Data,
    HttpBackend,
    ProvLightServer,
    RetryPolicy,
    ServerConfig,
    Task,
    Workflow,
)
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.http import HttpResponse, HttpServer
from repro.net import Network, ServerFaultInjector
from repro.simkernel import Environment

N_DEVICES = 4
N_TASKS = 10
RECORDS_PER_DEVICE = 2 + 2 * N_TASKS  # wf begin/end + task begin/end pairs


def main() -> None:
    # --- 1. edge fleet -> sharded server -> remote HTTP backend ------------
    env = Environment()
    net = Network(env, seed=42)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-server"))
    net.add_host("backend", device=Device(env, XEON_GOLD_5220, name="backend-api"))
    net.connect("cloud", "backend", bandwidth_bps=1e9, latency_s=0.002)

    # The HTTP edge is at-least-once under timeouts: a POST can time out
    # client-side *after* reaching the API, and the retry redelivers it.
    # A real provenance API therefore ingests idempotently — same pattern
    # the MQTT-SN plane implements with (client_id, seq) dedup — so this
    # one keys on record content and drops redeliveries.
    stored = []
    seen = set()
    redelivered = [0]

    def api_handler(request):
        payload = json.loads(request.body.decode())
        for record in payload if isinstance(payload, list) else [payload]:
            key = json.dumps(record, sort_keys=True, default=str)
            if key in seen:
                redelivered[0] += 1
                continue
            seen.add(key)
            stored.append(record)
        return HttpResponse(status=201, reason="Created")

    HttpServer(net.hosts["backend"], 5000, api_handler, workers=8)
    backend = HttpBackend(
        net.hosts["cloud"], ("backend", 5000), timeout_s=0.5,
        retry=RetryPolicy(max_attempts=3, base_s=0.05),
    )
    backend.breaker = CircuitBreaker(env, failure_threshold=3, reset_timeout_s=0.5)
    server = ProvLightServer(
        net.hosts["cloud"], backend,
        config=ServerConfig(workers=4, broker_shards=4),
    )

    # --- 2. durable capture clients ----------------------------------------
    journal_dir = tempfile.mkdtemp(prefix="provlight-chaos-")
    clients = []
    for i in range(N_DEVICES):
        dev = Device(env, A8M3, name=f"edge-{i}")
        net.add_host(f"edge-{i}", device=dev)
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=journal_dir,
            client_id=f"edge-{i}", qos=1,
            reconnect_base_s=0.2, reconnect_max_s=1.0,
        )
        client = create_client(dev, server.endpoint, f"provlight/edge-{i}/data", config)
        client.transport.mqtt.retry_interval_s = 0.2
        client.transport.mqtt.max_retries = 3
        clients.append(client)

    # --- 3. the chaos schedule ---------------------------------------------
    chaos = ServerFaultInjector(server, network=net, backend_host="backend")
    chaos.kill_shard_at(1.0)                 # busiest shard dies mid fan-in
    chaos.flap_backend(period_s=2.0, down_s=1.2, cycles=2)

    # --- 4. the instrumented workloads -------------------------------------
    finished = []

    def workload(env, idx, client):
        yield from server.pool.attach(f"provlight/edge-{idx}/data")
        yield from client.setup()
        # per-device workflow ids + dataset tags keep record *content*
        # unique across the fleet (the API's idempotency key needs it)
        wf_id = idx + 1
        workflow = Workflow(wf_id, client)
        yield from workflow.begin()
        for i in range(1, N_TASKS + 1):
            task = Task(i, workflow)
            yield from task.begin([Data(f"d{idx}-in{i}", wf_id, {"in": [1.0] * 8})])
            yield env.timeout(0.25)
            yield from task.end([Data(f"d{idx}-out{i}", wf_id, {"out": [2.0] * 8},
                                      derivations=[f"d{idx}-in{i}"])])
        yield from workflow.end(drain=True)
        finished.append(idx)

    for i, client in enumerate(clients):
        env.process(workload(env, i, client))
    env.run(until=600)

    # --- 5. recovery asserted (read off the run's event log) --------------
    metrics = env.metrics
    captured = sum(c.records_captured.count for c in clients)
    expected = N_DEVICES * RECORDS_PER_DEVICE
    faults = [(f"{e['t']:.2f}s", e["kind"]) for e in metrics.events()
              if e["kind"] in ("kill-shard", "partition-link", "heal-link")]
    failovers = metrics.events("failover")
    breaker_opens = [e for e in metrics.events("breaker") if e["state"] == "open"]
    print("=== chaos fan-in: shard kill + backend flap, full recovery ===")
    print(f"simulated time         : {env.now:.3f}s")
    print(f"chaos events           : {faults}")
    print(f"shard failovers        : {len(failovers)} "
          f"(sessions migrated {sum(e['migrated'] for e in failovers)}, "
          f"dropped {sum(e['dropped'] for e in failovers)})")
    print(f"client reconnects      : {len(metrics.events('reconnect'))}")
    print(f"journal replays        : {sum(c.replayed.count for c in clients)}")
    print(f"replay dups dropped    : {server.front.duplicates.count}")
    print(f"breaker opens / spills : {len(breaker_opens)} / "
          f"{backend.spilled.count} (drained {backend.spill_drained.count}, "
          f"shed {backend.shed.count})")
    print(f"records captured       : {captured}")
    print(f"records at backend     : {len(stored)} "
          f"(+{redelivered[0]} timed-out redeliveries dropped)")

    assert len(finished) == N_DEVICES, "a workload never finished its drain"
    assert len(failovers) == 1, "the shard kill was not failed over"
    assert len(breaker_opens) >= 1, "the flap never tripped the breaker"
    assert backend.spilled.count >= 1, "no ingest spilled during the outage"
    assert backend.spill_drained.count == backend.spilled.count
    assert captured == expected
    assert backend.pending_spill == 0, "spill not fully drained"
    assert backend.shed.count == 0, "load shedding dropped records"
    assert len(stored) == expected, "records lost or doubled under chaos!"
    print("\nrecovered: every record ingested exactly once under chaos.")

    for client in clients:
        client.close()
    server.front.deduper.close()
    shutil.rmtree(journal_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
