"""Continuum topology sweep: Table IX fan-in per topology preset, plus
fleet-churn recovery time.

The scalability experiments so far measured fan-in over an ideal star;
this file re-runs the same shape of workload over each
:data:`~repro.net.continuum.TOPOLOGY_PRESETS` tier layout — constrained
25 Kbit edge uplinks, lossy wireless with Gilbert-Elliott bursts, WAN
fog hops — and records the *simulated* ingestion throughput via
``benchmark.extra_info`` (machine-independent, like the shard-scale
benchmarks).  ``scripts/run_benchmarks.py`` turns them into the
``continuum_throughput_ratio_lossy_edge_over_ideal`` headline: what the
continuum's worst radio layer costs versus the ideal star assumption.

``test_fleet_churn_recovery`` measures the device-plane chaos path: a
durable 10-client fleet suffers 20% churn and the median crash→up
recovery time (restart + journal replay, on the simulation clock) lands
in the ``fleet_churn_recovery_ms_20pct`` headline.
"""

import shutil
import tempfile
from dataclasses import dataclass

import pytest

from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, ProvLightServer, ServerConfig
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.mqttsn.client import MqttSnTimeout
from repro.net import (
    TOPOLOGY_PRESETS,
    ContinuumTopology,
    FleetFaultInjector,
    Network,
    TopologySpec,
)
from repro.net.fleet import recovery_times
from repro.simkernel import Environment

N_DEVICES = 12
RECORDS_PER_DEVICE = 10
PRESETS = tuple(TOPOLOGY_PRESETS)

CHURN_FLEET = 10
CHURN_FRACTION = 0.2
CHURN_DOWN_S = 1.0


@dataclass
class FaninResult:
    preset: str
    delivered: int
    makespan_s: float

    @property
    def throughput_msgs_per_s(self) -> float:
        return self.delivered / self.makespan_s


def record(i, now):
    return {"kind": "task_begin", "workflow_id": 1,
            "transformation_id": 1, "task_id": i, "time": now}


def build_capture_world(preset, n_devices, seed, journal_dir=None):
    """A ProvLight server on the cloud root of ``preset``, one capture
    client per edge device."""
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=4),
    )
    spec = TopologySpec.parse(preset).scaled(n_devices)
    devices = []

    def factory(tier, index):
        if tier != spec.leaf.name:
            return None
        device = Device(env, A8M3, name=f"{tier}-{index}")
        devices.append(device)
        return device

    topo = ContinuumTopology(net, spec, root_host="cloud",
                             device_factory=factory)
    clients = []
    for device in devices:
        config = CaptureConfig(
            transport="mqttsn", qos=1,
            durable=journal_dir is not None,
            journal_dir=journal_dir, client_id=device.name,
            reconnect_base_s=0.2, reconnect_factor=1.5, reconnect_max_s=1.0,
        )
        client = create_client(device, server.endpoint,
                               f"bench/{device.name}/data", config)
        client.transport.mqtt.retry_interval_s = 0.2
        clients.append(client)
    return env, net, server, received, topo, clients


def setup_with_retry(env, client):
    """Burst loss can eat a whole handshake; setup is idempotent."""
    for _ in range(30):
        try:
            yield from client.setup()
            return
        except MqttSnTimeout:
            yield env.timeout(0.5)
    raise AssertionError(f"{client.client_id} never completed setup")


def run_topology_fanin(preset: str) -> FaninResult:
    """Simulated makespan of the Table IX-style fan-in over ``preset``.

    Clients are durable: over a lossy layer, QoS 1 alone is
    at-least-once — only the durable dedup envelope makes the ingested
    count comparable across presets (exactly once everywhere).
    """
    journal_dir = tempfile.mkdtemp(prefix="bench-fanin-journals-")
    try:
        return _run_topology_fanin(preset, journal_dir)
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)


def _run_topology_fanin(preset: str, journal_dir: str) -> FaninResult:
    env, net, server, received, topo, clients = build_capture_world(
        preset, N_DEVICES, seed=9, journal_dir=journal_dir,
    )
    done = []

    def workload(env, client):
        yield from server.pool.attach(client.topic)
        yield from setup_with_retry(env, client)
        for i in range(RECORDS_PER_DEVICE):
            yield from client.capture(record(i, env.now))
        yield from client.drain()
        done.append(env.now)

    for client in clients:
        env.process(workload(env, client))
    env.run(until=3600)
    assert len(done) == N_DEVICES, "some client never drained"
    expected = N_DEVICES * RECORDS_PER_DEVICE
    # QoS 1 retries ride out uniform and burst loss; nothing may vanish
    assert len(received) == expected, (
        f"{preset}: {len(received)}/{expected} records ingested"
    )
    return FaninResult(
        preset=preset, delivered=len(received), makespan_s=max(done),
    )


@pytest.mark.parametrize("preset", PRESETS)
def test_topology_fanin_throughput(benchmark, preset):
    result = benchmark(run_topology_fanin, preset)
    assert result.delivered == N_DEVICES * RECORDS_PER_DEVICE
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["simulated_msgs_per_s"] = round(
        result.throughput_msgs_per_s, 1
    )
    benchmark.extra_info["simulated_makespan_ms"] = round(
        result.makespan_s * 1e3, 1
    )


def test_lossy_edge_throughput_stays_within_reason():
    """Acceptance bar, in simulated time so it holds on any hardware:
    the lossy-wireless continuum ingests everything (QoS 1 + dedup),
    slower than the ideal star but not pathologically so."""
    ideal = run_topology_fanin("ideal")
    lossy = run_topology_fanin("lossy-wireless")
    assert lossy.delivered == ideal.delivered
    ratio = lossy.throughput_msgs_per_s / ideal.throughput_msgs_per_s
    assert ratio < 1.0, "a lossy radio layer cannot beat the ideal star"
    # ~100x slower is the expected cost of loss-triggered retry backoff
    # over sub-ms links; another order of magnitude would mean livelock
    assert ratio > 0.002, f"lossy-wireless collapsed to {ratio:.4f}x ideal"


def run_churn_recovery() -> float:
    """Max crash→up recovery time (sim seconds) of a 20% churn wave over
    a durable 10-client fleet on the ideal preset."""
    journal_dir = tempfile.mkdtemp(prefix="bench-churn-journals-")
    try:
        env, net, server, received, topo, clients = build_capture_world(
            "ideal", CHURN_FLEET, seed=23, journal_dir=journal_dir,
        )
        fleet = FleetFaultInjector(env, seed=23)
        proxies = []
        for client in clients:
            def build(client=client):
                return create_client(
                    client.device, server.endpoint, client.topic,
                    client.config,
                )

            fleet.register(client.device.name, client, build)
            proxies.append(fleet.proxy(client.device.name))
        fleet.churn_at(0.8, CHURN_FRACTION, CHURN_DOWN_S)
        done = []

        def workload(env, proxy):
            yield from server.pool.attach(proxy.topic)
            yield from setup_with_retry(env, proxy)
            for i in range(RECORDS_PER_DEVICE):
                yield from proxy.capture(record(i, env.now))
                yield env.timeout(0.25)
            yield from proxy.drain()
            done.append(env.now)

        for proxy in proxies:
            env.process(workload(env, proxy))
        env.run(until=3600)
        assert len(done) == CHURN_FLEET, "some proxy never drained"
        crashes = env.metrics.events("crash-device")
        assert len(crashes) == round(CHURN_FRACTION * CHURN_FLEET)
        assert fleet.devices_down == []
        completed = sum(p.records_completed for p in proxies)
        assert completed == CHURN_FLEET * RECORDS_PER_DEVICE
        assert len(received) == completed, "churn lost records"
        return max(recovery_times(env.metrics.events()))
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)


def test_fleet_churn_recovery(benchmark):
    recovery_s = benchmark(run_churn_recovery)
    # down_s is the floor: a restart cannot finish before its schedule
    assert recovery_s >= CHURN_DOWN_S
    benchmark.extra_info["fleet_churn_recovery_ms_20pct"] = round(
        recovery_s * 1e3, 1
    )
    benchmark.extra_info["churn_fraction"] = CHURN_FRACTION
    benchmark.extra_info["fleet_size"] = CHURN_FLEET
