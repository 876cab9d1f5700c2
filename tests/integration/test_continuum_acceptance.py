"""Continuum acceptance: a 64-device durable fleet under 20% churn plus
a mid-run edge<->fog partition loses nothing, on every topology preset.

The ISSUE's acceptance bar for the continuum chaos plane: build a tiered
edge/fog/cloud topology from a preset, register every durable capture
client with a :class:`FleetFaultInjector`, then — while all 64 devices
stream — crash 20% of the fleet and cut the whole edge<->fog backhaul
for a window.  Restarted incarnations replay their WAL journals through
the healed network, and the backend must ingest every record exactly
once, in per-client ``(client_id, seq)`` order.
"""

import pytest

from repro.capture import CaptureConfig, create_client
from repro.capture.envelope import ReplayDeduper
from repro.core import CallableBackend, ProvLightServer, ServerConfig
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.mqttsn.client import MqttSnTimeout
from repro.net import ContinuumTopology, FleetFaultInjector, Network, TopologySpec
from repro.simkernel import Environment

N_DEVICES = 64
RECORDS_PER_DEVICE = 6
CHURN_FRACTION = 0.2


class OrderSpyDeduper(ReplayDeduper):
    """Records the order in which unique ``(client_id, seq)`` pairs are
    marked ingested — the backend-side view of each client's stream."""

    def __init__(self):
        super().__init__()
        self.mark_order = {}

    def mark(self, client_id, seq):
        self.mark_order.setdefault(client_id, []).append(seq)
        super().mark(client_id, seq)


def build_world(tmp_path, preset, seed):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=4, broker_shards=2),
    )
    spy = OrderSpyDeduper()
    server.deduper = spy

    spec = TopologySpec.parse(preset).scaled(N_DEVICES)
    devices = []

    def factory(tier, index):
        if tier != spec.leaf.name:
            return None
        device = Device(env, A8M3, name=f"{tier}-{index}")
        devices.append(device)
        return device

    topo = ContinuumTopology(net, spec, root_host="cloud",
                             device_factory=factory)
    fleet = FleetFaultInjector(env, topology=topo, seed=seed)
    proxies = []
    for device in devices:
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=str(tmp_path),
            client_id=device.name, qos=1,
            reconnect_base_s=0.2, reconnect_factor=1.5, reconnect_max_s=1.0,
        )

        def build(device=device, config=config):
            return create_client(device, server.endpoint,
                                 f"conf/{device.name}/data", config)

        fleet.register(device.name, build(), build)
        proxies.append(fleet.proxy(device.name))
    return env, net, server, received, spy, topo, fleet, proxies


def drive(env, server, proxy, done):
    def workload(env):
        yield from server.pool.attach(f"conf/{proxy.name}/data")
        # burst loss can eat a whole CONNECT/REGISTER exchange; setup is
        # idempotent, so an edge deployment simply tries again
        for attempt in range(20):
            try:
                yield from proxy.setup()
                break
            except MqttSnTimeout:
                yield env.timeout(1.0)
        else:
            raise AssertionError(f"{proxy.name} never completed setup")
        for i in range(RECORDS_PER_DEVICE):
            yield from proxy.capture({
                "kind": "task_begin", "workflow_id": 1,
                "transformation_id": 1, "task_id": i, "time": proxy.now,
            })
            yield env.timeout(0.3)
        yield from proxy.drain()
        done.append(proxy.name)

    return env.process(workload(env))


@pytest.mark.parametrize("preset", ["constrained-edge", "lossy-wireless"])
def test_churn_plus_tier_partition_is_zero_loss_exactly_once(tmp_path, preset):
    env, net, server, received, spy, topo, fleet, proxies = build_world(
        tmp_path / preset, preset, seed=17,
    )
    # 20% of the fleet crashes mid-stream; while some of those restarts
    # are still pending, the whole edge<->fog backhaul goes dark
    fleet.churn_at(0.8, CHURN_FRACTION, 2.0)
    topo.partition_tiers_at("edge", "fog", 1.5, 2.0)

    done = []
    for proxy in proxies:
        drive(env, server, proxy, done)
    env.run(until=3600)

    assert len(done) == N_DEVICES, "some device never finished its drain"
    expected = N_DEVICES * RECORDS_PER_DEVICE
    stats = fleet.stats()
    assert stats["devices_crashed"] == round(CHURN_FRACTION * N_DEVICES)
    assert stats["devices_restarted"] == stats["devices_crashed"]
    assert stats["devices_down"] == 0
    assert stats["topology"]["tier_outages"] == 1
    # the churn window overlaps live traffic: at least one incarnation
    # came back with journaled records to replay
    assert stats["journal_recoveries"] >= 1

    # zero loss: every completed proxy call reached the backend
    completed = sum(proxy.records_completed for proxy in proxies)
    assert completed == expected
    # exactly once: no duplicate survived the dedup index
    assert server.records_ingested.total == expected
    assert len(received) == expected
    # per-client order: each client's (client_id, seq) stream arrived at
    # the backend in strictly increasing seq order, churn or not
    assert len(spy.mark_order) == N_DEVICES
    for client_id, seqs in spy.mark_order.items():
        assert seqs == sorted(seqs), f"{client_id} ingested out of order"
        assert len(seqs) == len(set(seqs)), f"{client_id} double-ingested"


def test_harness_run_matches_the_manual_world(tmp_path):
    """The same acceptance bar through the public harness entrypoint:
    ExperimentSetup(topology=..., chaos=...) auto-provisions the fleet
    and reports a balanced ledger in fleet_stats."""
    from repro.harness.experiments import ExperimentSetup, run_capture_experiment
    from repro.workloads import SyntheticWorkloadConfig

    cfg = SyntheticWorkloadConfig(
        chained_transformations=1, number_of_tasks=2, task_duration_s=0.05,
    )
    setup = ExperimentSetup(
        n_devices=8, topology="constrained-edge", qos=1,
        chaos="churn@0.5:0.2:1.0,partition-tier:edge-fog@1:0.8",
    )
    outcome = run_capture_experiment(setup, cfg, seed=3)
    assert outcome.fleet_stats is not None
    assert outcome.fleet_stats["devices_crashed"] >= 1
    assert outcome.fleet_stats["devices_down"] == 0
    assert outcome.fleet_stats["records_completed"] == outcome.backend_records
    assert outcome.topology_stats["tier_outages"] == 1
