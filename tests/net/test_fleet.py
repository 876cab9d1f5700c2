"""FleetFaultInjector + FleetClientProxy: device-plane churn."""

import pytest

from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, ProvLightServer, ServerConfig
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.net import ContinuumTopology, FleetFaultInjector, Network
from repro.simkernel import Environment


def rec(i, wf=1):
    """A minimal well-formed provenance record (translators reject
    arbitrary dicts)."""
    return {"kind": "task_begin", "workflow_id": wf,
            "transformation_id": 1, "task_id": i, "time": float(i)}


def make_fleet(tmp_path, n=3, seed=5, topology=None):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=2),
    )
    topo = None
    if topology:
        topo = ContinuumTopology(net, topology, root_host="cloud")
    fleet = FleetFaultInjector(env, topology=topo, seed=seed)
    for i in range(n):
        cid = f"edge-{i}"
        dev = Device(env, A8M3, name=cid)
        if topo is not None:
            host = net.hosts[f"edge-{i}"]
            host.device = dev
            dev.host = host
        else:
            net.add_host(f"host-{cid}", device=dev)
            net.connect(f"host-{cid}", "cloud", bandwidth_bps=1e9,
                        latency_s=0.01)
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=str(tmp_path),
            client_id=cid, qos=1,
            reconnect_base_s=0.2, reconnect_factor=1.5, reconnect_max_s=1.0,
        )

        def build(dev=dev, cid=cid, config=config):
            return create_client(dev, server.endpoint,
                                 f"conf/{cid}/data", config)

        client = build()
        fleet.register(cid, client, build)
    return env, net, server, received, fleet, topo


# ---------------------------------------------------------- registration

def test_register_and_proxy_validation(tmp_path):
    env, net, server, _, fleet, _ = make_fleet(tmp_path)
    assert fleet.devices == ["edge-0", "edge-1", "edge-2"]
    with pytest.raises(ValueError, match="already registered"):
        fleet.register("edge-0", object(), lambda: None)
    with pytest.raises(KeyError, match="ghost"):
        fleet.proxy("ghost")
    proxy = fleet.proxy("edge-1")
    assert proxy.name == "edge-1"
    assert proxy.client is fleet.client_of("edge-1")


# ------------------------------------------------------- crash and restart

def test_crash_closes_the_client_and_restart_recovers(tmp_path):
    env, net, server, received, fleet, _ = make_fleet(tmp_path, n=1)
    client = fleet.client_of("edge-0")

    def run(env):
        yield from server.pool.attach("conf/edge-0/data")
        yield from client.setup()
        yield from client.capture(rec(0))
        yield from client.drain()

    env.process(run(env))
    env.run(until=5.0)
    assert len(received) == 1

    victim = fleet.crash_device()
    assert victim == "edge-0"
    assert client.closed
    assert fleet.devices_down == ["edge-0"]
    assert fleet.events[-1][1] == "crash-device:edge-0"
    with pytest.raises(ValueError, match="already down"):
        fleet.crash_device("edge-0")
    with pytest.raises(ValueError, match="no device is up"):
        fleet.crash_device()

    fleet.restart_device("edge-0")
    env.run(until=10.0)
    assert fleet.devices_down == []
    assert fleet.client_of("edge-0") is not client
    assert not fleet.client_of("edge-0").closed
    assert fleet.devices_restarted == 1
    assert len(fleet.recoveries) == 1
    assert fleet.recovery_times_s()[0] > 0


def test_restart_requires_a_crash_first(tmp_path):
    env, net, server, _, fleet, _ = make_fleet(tmp_path, n=1)
    with pytest.raises(ValueError, match="not down"):
        fleet.restart_device("edge-0")


def test_restart_replays_the_journal_exactly_once(tmp_path):
    """A crash between journal append and delivery leaves unacked
    entries; the next incarnation replays them and the backend sees each
    record exactly once."""
    env, net, server, received, fleet, _ = make_fleet(tmp_path, n=1)
    client = fleet.client_of("edge-0")

    def run(env):
        yield from server.pool.attach("conf/edge-0/data")
        yield from client.setup()
        # journal without delivering: stage the entry, then crash before
        # the network round-trip completes
        client.journal.append(b'{"k": 99}', ts=env.now)
        fleet.crash_device("edge-0")
        yield env.timeout(0.5)
        fleet.restart_device("edge-0")

    env.process(run(env))
    env.run(until=30.0)
    assert fleet.journal_recoveries == 1
    assert fleet.client_of("edge-0").replayed.count == 1


def test_restart_under_partition_retries_until_heal(tmp_path):
    env, net, server, received, fleet, topo = make_fleet(
        tmp_path, n=2, topology="edge:2,cloud:1",
    )
    client = fleet.client_of("edge-0")

    def run(env):
        yield from server.pool.attach("conf/edge-0/data")
        yield from client.setup()
        fleet.crash_device("edge-0")
        topo.partition_tiers("edge", "cloud")
        fleet.restart_device("edge-0")
        yield env.timeout(8.0)
        # still down: setup cannot complete across the partition
        assert fleet.devices_down == ["edge-0"]
        topo.heal_tiers("edge", "cloud")

    env.process(run(env))
    env.run(until=60.0)
    assert fleet.devices_down == []
    assert fleet.devices_restarted == 1


# ------------------------------------------------------------- the proxy

def test_proxy_retries_a_capture_interrupted_by_crash(tmp_path):
    env, net, server, received, fleet, _ = make_fleet(tmp_path, n=1)
    proxy = fleet.proxy("edge-0")

    def workload(env):
        yield from server.pool.attach("conf/edge-0/data")
        yield from proxy.setup()
        for i in range(20):
            yield from proxy.capture(rec(i))
            yield env.timeout(0.1)
        yield from proxy.drain()

    def chaos(env):
        yield env.timeout(0.3)
        fleet.crash_device("edge-0")
        yield env.timeout(1.0)
        fleet.restart_device("edge-0")

    env.process(workload(env))
    env.process(chaos(env))
    env.run(until=120.0)
    assert fleet.devices_restarted == 1
    assert proxy.records_completed == 20
    # zero loss, exactly once: the ledger balances the backend
    assert len(received) == 20
    # counters read through to the current incarnation
    assert proxy.records_captured.count >= 1


def test_proxy_setup_retries_until_a_partition_heals(tmp_path):
    env, net, server, received, fleet, topo = make_fleet(
        tmp_path, n=1, topology="edge:1,cloud:1",
    )
    proxy = fleet.proxy("edge-0")
    up_at = []

    def run(env):
        yield from server.pool.attach("conf/edge-0/data")
        topo.partition_tiers("edge", "cloud")
        env.call_later(20.0, topo.heal_tiers, "edge", "cloud")
        yield from proxy.setup()
        up_at.append(env.now)
        yield from proxy.capture(rec(0))
        yield from proxy.drain()

    env.process(run(env))
    env.run(until=120.0)
    assert up_at and up_at[0] > 20.0
    assert len(received) == 1


def test_first_setup_on_a_lossy_link_is_retried():
    """Burst loss on ``lossy-wireless`` can eat every CONNECT (seed 11)
    or REGISTER (seed 12) retransmission of a device's first setup; the
    run must retry it, not abort."""
    from repro.harness.experiments import ExperimentSetup, run_capture_experiment
    from repro.workloads import SyntheticWorkloadConfig

    setup = ExperimentSetup(
        n_devices=8, topology="lossy-wireless", group_size=0, qos=1,
        chaos="churn@10:0.2:2",
    )
    config = SyntheticWorkloadConfig(number_of_tasks=10, attributes_per_task=10)
    for seed in (11, 12):
        outcome = run_capture_experiment(setup, config, seed=seed)
        assert outcome.fleet_stats["devices_down"] == 0
        assert outcome.fleet_stats["records_completed"] == outcome.backend_records
        assert outcome.backend_records == 8 * 22


def test_proxy_propagates_real_errors(tmp_path):
    env, net, server, _, fleet, _ = make_fleet(tmp_path, n=1)
    proxy = fleet.proxy("edge-0")

    def bad(env):
        # capture before setup is a real usage error, not a crash
        yield from proxy.capture(rec(0))

    proc = env.process(bad(env))
    with pytest.raises(Exception):
        env.run(until=5.0)


# ------------------------------------------------------- scheduled chaos

def test_crash_restart_at_and_churn_validation(tmp_path):
    env, net, server, _, fleet, _ = make_fleet(tmp_path)
    with pytest.raises(ValueError):
        fleet.crash_restart_at(-1.0, 1.0)
    with pytest.raises(ValueError):
        fleet.crash_restart_at(1.0, 0.0)
    with pytest.raises(ValueError):
        fleet.churn_at(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fleet.churn_at(1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        fleet.churn_at(-1.0, 0.5, 1.0)


def test_churn_crashes_a_deterministic_fraction(tmp_path):
    env, net, server, received, fleet, _ = make_fleet(tmp_path, n=5)
    clients = {name: fleet.client_of(name) for name in fleet.devices}

    def run(env, name):
        client = clients[name]
        yield from server.pool.attach(f"conf/{name}/data")
        yield from client.setup()

    for name in fleet.devices:
        env.process(run(env, name))
    fleet.churn_at(1.0, 0.4, 2.0)
    env.run(until=1.5)
    assert len(fleet.devices_down) == 2  # round(0.4 * 5)
    env.run(until=60.0)
    assert fleet.devices_down == []
    assert fleet.devices_crashed == 2
    assert fleet.devices_restarted == 2
    assert len(fleet.recoveries) == 2

    # same seed, same world -> same victims
    env2, _, server2, _, fleet2, _ = make_fleet(tmp_path / "replay", n=5)
    fleet2.churn_at(1.0, 0.4, 2.0)
    env2.run(until=1.5)
    assert fleet2.devices_down == sorted(
        name for name, _, _ in fleet.recoveries
    )


# ---------------------------------------------------------- observability

def test_stats_snapshot_merges_topology(tmp_path):
    env, net, server, _, fleet, topo = make_fleet(
        tmp_path, n=2, topology="edge:2,cloud:1",
    )
    stats = fleet.stats()
    assert stats["devices"] == 2
    assert stats["devices_down"] == 0
    assert stats["devices_crashed"] == 0
    assert "max_recovery_s" not in stats
    assert stats["topology"]["tiers"] == {"edge": 2, "cloud": 1}
