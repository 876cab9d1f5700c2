"""A blocking capture's POST run in the workflow's own process against
the per-POST process model it replaced (:mod:`tests.capture.post_oracle`).

Both models run the same seeded world: 1–4 edge devices on their own
links to one cloud host, each capturing the synthetic workload through
the ``http`` façade (best-effort or durable) or a ProvLake (with and
without grouping) or DfAnalyzer baseline client.  The collector is
either there from the start or appears mid-run, so early POSTs are
refused: the baselines count them lost, a durable façade replays them.
Task durations carry no jitter, so the devices run in lockstep and
their POSTs end in the same instants.  Every collector ingest is logged
as ``(time, key)``; the timelines, the devices' ``RunMetrics``, the
bytes on every link and the clients' counters must agree exactly.
"""

import tempfile
import zlib

import numpy as np
import pytest

from repro.baselines import DfAnalyzerCaptureClient, ProvLakeClient
from repro.capture import CaptureConfig, create_client, deploy_capture_sink
from repro.core import ServerConfig
from repro.device import A8M3, Device
from repro.http import HttpResponse, HttpServer
from repro.metrics.collectors import snapshot_device
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

from .post_oracle import process_model

KINDS = ["http", "http-durable", "provlake", "provlake-grouped", "dfanalyzer"]
#: (bandwidth_bps, latency_s, jitter_s, loss): the http-fanin star link,
#: a 25 Kbit one, and a lossy one whose per-packet draws from the
#: network's shared RNG show the order of same-instant sends
LINKS = {"fast": (1e9, 0.023, 0.0, 0.0), "slow": (25e3, 0.01, 0.0, 0.0),
         "lossy": (2.0 ** 20, 1 / 64, 0.0, 0.05)}
#: collector start: present from the start, or mid-way through the first
#: records (refusing the POSTs before it)
APPEAR_AT = {"present": 0.0, "late": 0.9}
WORKLOAD = SyntheticWorkloadConfig(
    chained_transformations=2, number_of_tasks=4, attributes_per_task=10,
    task_duration_s=0.125, duration_jitter=0.0,
)
PORT = 5000
#: fewer collector workers than devices: same-instant requests queue
WORKERS = 2


class ZeroDelayProbe(Environment):
    """Counts zero-delay timeouts: in this world only a blocking send
    that finds an entry due at its end makes one."""

    def __init__(self):
        super().__init__()
        self.zero_delay_waits = 0

    def timeout(self, delay, value=None):
        if delay == 0:
            self.zero_delay_waits += 1
        return super().timeout(delay, value)


def make_client(kind, device, journal_dir):
    endpoint = ("cloud", PORT)
    if kind.startswith("http"):
        config = CaptureConfig(
            transport="http", durable=kind == "http-durable",
            journal_dir=journal_dir, reconnect_base_s=0.2,
            reconnect_max_s=1.0,
        )
        return create_client(device, endpoint, "/provlight", config)
    if kind.startswith("provlake"):
        group = 3 if kind == "provlake-grouped" else 0
        return ProvLakeClient(device, endpoint, group_size=group)
    return DfAnalyzerCaptureClient(device, endpoint)


def run_world(kind, n_devices, link, appear_at, seed):
    """One run; returns everything the two models must agree on."""
    with tempfile.TemporaryDirectory() as tmp:
        env = ZeroDelayProbe()
        net = Network(env, seed=seed)
        cloud = net.add_host("cloud")
        bandwidth, latency, jitter, loss = LINKS[link]
        devices = []
        for i in range(n_devices):
            device = Device(env, A8M3, name=f"edge-{i}")
            net.add_host(f"edge-{i}", device=device)
            net.connect(f"edge-{i}", "cloud", bandwidth_bps=bandwidth,
                        latency_s=latency, jitter_s=jitter, loss=loss)
            devices.append(device)
        timeline = []
        sinks = []

        def ingest(records):
            timeline.append((env.now, zlib.crc32(repr(records).encode())))

        def handler(request):
            timeline.append((env.now, zlib.crc32(request.body)))
            return HttpResponse(status=201, reason="Created")

        def deploy():
            if kind.startswith("http"):
                sink, _ = deploy_capture_sink(
                    "http", cloud, ingest, http_port=PORT,
                    http_workers=WORKERS,
                    server=ServerConfig(dedup_state_path=f"{tmp}/dedup.jsonl"),
                )
            else:
                sink = HttpServer(cloud, PORT, handler, workers=WORKERS)
            sinks.append(sink)

        if APPEAR_AT[appear_at]:
            env.call_later(APPEAR_AT[appear_at], deploy)
        else:
            deploy()
        clients = [make_client(kind, device, tmp) for device in devices]
        metrics = {}

        def run_device(i, client, device):
            device.reset_accounting()
            result = {}
            yield from synthetic_workload(
                env, client, WORKLOAD,
                rng=np.random.default_rng(seed * 1000 + i), result=result,
            )
            metrics[i] = snapshot_device(device, result["elapsed"])

        for i, (client, device) in enumerate(zip(clients, devices)):
            env.process(run_device(i, client, device), name=f"device-{i}")
        env.run()
        counters = []
        for client in clients:
            transport = client.transport
            row = [transport.requests_sent.count, transport.capture_errors.count,
                   transport.body_bytes.total]
            if kind.startswith("http"):
                row += [client.messages_sent.count, client.replayed.count,
                        client.journal.pending if client.durable else None]
            counters.append(row)
            client.close()
        for sink in sinks:
            sink.close()
        wire = [(net.link(f"edge-{i}", "cloud").tx_bytes.total,
                 net.link("cloud", f"edge-{i}").tx_bytes.total)
                for i in range(n_devices)]
        return {
            "timeline": timeline,
            "metrics": [metrics[i] for i in range(n_devices)],
            "wire": wire,
            "counters": counters,
            "end": env.now,
            "zero_delay_waits": env.zero_delay_waits,
        }


def compare(kind, n_devices, link, appear_at):
    seed = 1 + zlib.crc32(f"{kind}/{n_devices}/{link}/{appear_at}".encode()) % 97
    with process_model():
        expected = run_world(kind, n_devices, link, appear_at, seed)
    got = run_world(kind, n_devices, link, appear_at, seed)
    for key in ("timeline", "metrics", "wire", "counters", "end"):
        assert got[key] == expected[key], key
    return got


@pytest.mark.parametrize("appear_at", sorted(APPEAR_AT))
@pytest.mark.parametrize("link", sorted(LINKS))
@pytest.mark.parametrize("n_devices", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_inline_post_matches_the_process_model(kind, n_devices, link, appear_at):
    got = compare(kind, n_devices, link, appear_at)
    records = n_devices * (2 + 2 * WORKLOAD.number_of_tasks)
    if kind != "provlake-grouped":
        assert sum(row[0] for row in got["counters"]) >= records
    if appear_at == "present":
        assert len(got["timeline"]) == sum(row[0] for row in got["counters"])
    elif kind == "http-durable":
        # the refused POSTs came back through the replay, exactly once
        assert sum(row[4] for row in got["counters"]) > 0
        assert all(row[5] == 0 for row in got["counters"])
        assert len(got["timeline"]) == records
    else:
        assert sum(row[1] for row in got["counters"]) > 0  # lost, counted


def resume_trace(probe_at=()):
    """Three captures through the ``http`` façade on the fast link; logs
    each time the workflow resumes from ``capture()``, and a probe at
    each time in ``probe_at``.

    A probe is the zero-delay entry a timer pushes at that time; the
    timer is armed 10 ms earlier, while the response is on the 23 ms
    link, so it runs after the response's delivery in that instant and
    its probe is due when the POST ends.
    """
    env = ZeroDelayProbe()
    net = Network(env, seed=3)
    cloud = net.add_host("cloud")
    device = Device(env, A8M3, name="edge-0")
    net.add_host("edge-0", device=device)
    net.connect("edge-0", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    deploy_capture_sink("http", cloud, lambda records: None, http_port=PORT)
    client = make_client("http", device, None)
    trace = []

    def kick(at):
        env.call_later(0.0, trace.append, (at, "probe"))

    def arm(at):
        env.call_later(at - env.now, kick, at)

    for at in probe_at:
        env.call_later(at - 0.01, arm, at)

    def workflow():
        for i in range(3):
            yield from client.capture({"task": i, "status": "FINISHED"})
            trace.append((env.now, "resumed"))

    env.process(workflow())
    env.run()
    return trace, env.zero_delay_waits


def test_a_post_that_ends_with_an_entry_due_resumes_behind_it():
    """Guard against a vacuous oracle: a POST that ends with nothing else
    due resumes its caller in place; one that ends in the instant of an
    entry pushed earlier resumes it after that entry, where the
    completion event used to."""
    with process_model():
        plain, _ = resume_trace()
    got, waits = resume_trace()
    assert got == plain and waits == 0
    ends = [at for at, _ in plain]
    with process_model():
        expected, _ = resume_trace(probe_at=ends)
    got, waits = resume_trace(probe_at=ends)
    assert got == expected and waits == 3
    assert [what for _, what in got] == ["probe", "resumed"] * 3
