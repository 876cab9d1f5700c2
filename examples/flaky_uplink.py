"""Durable capture over a flaky edge uplink, on every capture transport.

An edge device runs an instrumented workflow while its uplink is cut
twice (a partition mid-stream plus a second flap).  The capture client
runs with ``durable=True``: every record is journaled to a write-ahead
store before dispatch, delivery failures trip the reconnect state
machine, and unacknowledged entries are replayed once the link heals.
Server-side ``(client_id, seq)`` dedup turns the replays into
exactly-once backend ingestion.  The scenario runs over MQTT-SN, CoAP
and HTTP, each against the sink ``deploy_capture_sink`` builds for it,
and asserts for each that the outages lost **zero** records and
ingested none twice.

Run with:  python examples/flaky_uplink.py
"""

import shutil
import tempfile

from repro.capture import (
    CaptureConfig,
    HmacRecordSigner,
    create_client,
    deploy_capture_sink,
)
from repro.core import Data, Task, Workflow
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.net import LinkFaultInjector, Network
from repro.simkernel import Environment

TRANSPORTS = ("mqttsn", "coap", "http")
TOPIC = "provlight/edge/data"


def run(transport: str, journal_dir: str) -> None:
    # --- 1. an edge-to-cloud world with a breakable uplink -----------------
    env = Environment()
    net = Network(env, seed=42)
    edge = Device(env, A8M3, name="edge-device")
    cloud = Device(env, XEON_GOLD_5220, name="cloud-server")
    net.add_host("edge", device=edge)
    net.add_host("cloud", device=cloud)
    net.connect("edge", "cloud", bandwidth_bps=1e6, latency_s=0.023)

    received = []
    sink, endpoint = deploy_capture_sink(transport, net.hosts["cloud"],
                                         received.extend)

    # --- 2. a durable capture client ---------------------------------------
    # durable=True: journal write-through + replay-on-reconnect; the
    # signer makes the journal's hash chain tamper-evident end to end
    config = CaptureConfig(
        transport=transport,
        durable=True,
        journal_dir=journal_dir,
        signer=HmacRecordSigner(b"demo-shared-key-0123"),
        reconnect_base_s=0.25,
        reconnect_max_s=2.0,
    )
    client = create_client(edge, endpoint, TOPIC, config)
    if transport == "mqttsn":
        client.transport.mqtt.retry_interval_s = 0.25

    transitions = []
    client.add_connection_listener(
        lambda state: transitions.append((round(env.now, 3), state))
    )

    # --- 3. schedule the faults -------------------------------------------
    faults = LinkFaultInjector(net, "edge", "cloud")
    faults.partition_at(after_s=1.0, duration_s=3.0)   # mid-stream outage
    faults.partition_at(after_s=7.0, duration_s=1.5)   # and a second flap

    # --- 4. the instrumented workflow --------------------------------------
    def workload(env):
        if transport == "mqttsn":
            yield from sink.pool.attach("provlight/#")
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()
        for i in range(1, 16):
            task = Task(i, workflow)
            yield from task.begin([Data(f"in{i}", 1, {"in": [1.0] * 10})])
            yield env.timeout(0.5)  # the task runs; outages come and go
            yield from task.end([Data(f"out{i}", 1, {"out": [2.0] * 10},
                                      derivations=[f"in{i}"])])
        # drain resolves only once every journaled record is delivered,
        # replays included
        yield from workflow.end(drain=True)

    env.process(workload(env))
    env.run(until=600)

    # --- 5. zero loss, exactly once ----------------------------------------
    captured = client.records_captured.count
    ingested = int(sink.front.ingested.total)
    print(f"=== flaky uplink over {transport}: durable capture survives partitions ===")
    print(f"simulated time        : {env.now:.3f}s")
    cuts = [f"{e['kind']}@{e['t']:.1f}s" for e in env.metrics.events()
            if e["kind"] in ("partition-link", "heal-link")]
    print(f"outages               : {cuts}")
    print(f"records captured      : {captured}")
    print(f"records ingested      : {ingested}")
    reconnects = len(env.metrics.events("reconnect"))
    print(f"reconnects / replays  : {reconnects} / {client.replayed.count}")
    print(f"replay dups dropped   : {sink.front.duplicates.count}")
    print(f"journal pending       : {client.journal.pending}")
    print("connection transitions:")
    for at, state in transitions:
        print(f"  {at:7.3f}s  {state}")

    assert ingested == captured == len(received), "partition lost or doubled records!"
    assert client.journal.pending == 0, "journal not fully acknowledged"
    if transport == "mqttsn":  # CoAP and TCP retransmit across these outages
        assert reconnects >= 1, "outage never exercised reconnect"
    print(f"zero records lost over {transport}, every record ingested exactly once.\n")
    client.close()


def main() -> None:
    for transport in TRANSPORTS:
        journal_dir = tempfile.mkdtemp(prefix="provlight-journal-")
        try:
            run(transport, journal_dir)
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
