"""Direct tests for the Provenance Manager (paper Section V)."""

import pytest

from repro.capture import CaptureConfig, create_client
from repro.capture.envelope import ReplayDeduper
from repro.core import Data, ServerConfig, Task, Workflow
from repro.device import A8M3, Device
from repro.e2clab import ProvenanceManager
from repro.net import Network
from repro.simkernel import Environment


def make_world(n_edge=2, **manager_kwargs):
    env = Environment()
    net = Network(env, seed=8)
    devices = []
    for i in range(n_edge):
        dev = Device(env, A8M3, name=f"edge-{i}")
        net.add_host(f"edge-{i}", device=dev)
        devices.append(dev)
    manager = ProvenanceManager(net, **manager_kwargs)
    manager.connect_layer_to_server(
        [d.name for d in devices], bandwidth_bps=1e9, latency_s=0.01
    )
    return env, net, manager, devices


def test_manager_provisions_its_own_cloud_host():
    env, net, manager, devices = make_world()
    assert manager.host_name == "provenance-manager"
    assert manager.host_name in net.hosts
    assert net.hosts[manager.host_name].device.spec.name == "xeon-gold-5220"


def test_manager_reuses_existing_host():
    env = Environment()
    net = Network(env, seed=1)
    existing = net.add_host("cloud-x")
    manager = ProvenanceManager(net, host_name="cloud-x")
    assert manager.host is existing


def test_deploy_client_creates_topic_and_translator():
    env, net, manager, devices = make_world()
    captured = {}

    def scenario(env):
        client = yield from manager.deploy_client(devices[0])
        captured["client"] = client
        wf = Workflow("wf", client)
        yield from wf.begin()
        task = Task(0, wf)
        yield from task.begin([Data("d0", "wf", {"x": 1})])
        yield from task.end([Data("d1", "wf", {"y": 2}, derivations=["d0"])])
        yield from wf.end(drain=True)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    assert captured["client"].topic == "provlight/edge-0/data"
    assert sum(len(w.topic_filters) for w in manager.server.pool.workers) == 1
    assert manager.records_ingested == 4
    summary = manager.dataflow_summary("wf")
    assert summary["tasks"] == 1


def test_duplicate_topic_rejected():
    env, net, manager, devices = make_world()
    errors = []

    def scenario(env):
        yield from manager.deploy_client(devices[0], topic="same")
        try:
            yield from manager.deploy_client(devices[1], topic="same")
        except ValueError as exc:
            errors.append(str(exc))

    env.process(scenario(env))
    env.run()
    assert len(errors) == 1


def test_connect_layer_is_idempotent():
    env, net, manager, devices = make_world()
    # calling again must not raise (links already exist)
    manager.connect_layer_to_server(
        [d.name for d in devices], bandwidth_bps=1e9, latency_s=0.01
    )
    assert net.link("edge-0", manager.host_name) is not None


def test_query_passthrough():
    env, net, manager, devices = make_world()

    def scenario(env):
        client = yield from manager.deploy_client(devices[0])
        wf = Workflow("q", client)
        yield from wf.begin()
        for i in range(3):
            task = Task(i, wf)
            yield from task.begin([])
            yield from task.end([Data(f"out{i}", "q", {"score": float(i)})])
        yield from wf.end(drain=True)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    best = (
        manager.query("datasets")
        .where("dataflow_tag", "==", "q")
        .order_by("score", desc=True)
        .limit(1)
        .rows()
    )
    assert best[0]["score"] == 2.0


def test_grouped_manager_clients():
    env = Environment()
    net = Network(env, seed=3)
    dev = Device(env, A8M3, name="edge-g")
    net.add_host("edge-g", device=dev)
    manager = ProvenanceManager(net, group_size=4)
    manager.connect_layer_to_server(["edge-g"], bandwidth_bps=1e9, latency_s=0.01)

    def scenario(env):
        client = yield from manager.deploy_client(dev)
        assert client.group_buffer.group_size == 4
        wf = Workflow("g", client)
        yield from wf.begin()
        for i in range(6):
            task = Task(i, wf)
            yield from task.begin([])
            yield from task.end([])
        yield from wf.end(drain=True)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    assert manager.records_ingested == 14


def test_manager_with_sharded_broker_plane():
    """The broker_shards knob reaches the server: capture still flows
    end to end when the manager deploys a 2-shard broker cluster."""
    env = Environment()
    net = Network(env, seed=4)
    devices = []
    for i in range(2):
        dev = Device(env, A8M3, name=f"edge-s{i}")
        net.add_host(f"edge-s{i}", device=dev)
        devices.append(dev)
    manager = ProvenanceManager(net, server=ServerConfig(broker_shards=2))
    manager.connect_layer_to_server(
        [d.name for d in devices], bandwidth_bps=1e9, latency_s=0.01
    )
    assert len(manager.server.broker.shards) == 2

    def scenario(env):
        for dev in devices:
            client = yield from manager.deploy_client(dev)
            wf = Workflow(f"wf-{dev.name}", client)
            yield from wf.begin()
            task = Task(0, wf)
            yield from task.begin([Data("d0", wf.id, {"x": 1})])
            yield from task.end([Data("d1", wf.id, {"y": 2})])
            yield from wf.end(drain=True)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    # 2 devices x (wf begin/end + task begin/end) = 8 records
    assert manager.records_ingested == 8
    assert manager.server.env.metrics.summed("broker", "delivery_failures").count == 0


def test_deploy_client_with_coap_transport():
    env, net, manager, devices = make_world()

    def scenario(env):
        client = yield from manager.deploy_client(devices[0], transport="coap")
        assert client.transport.name == "coap"
        wf = Workflow("c", client)
        yield from wf.begin()
        task = Task(0, wf)
        yield from task.begin([])
        yield from task.end([Data("out0", "c", {"v": 1.0})])
        yield from wf.end(drain=True)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    assert manager.records_ingested == 4


def test_transport_argument_selects_manager_transport(monkeypatch):
    # the argument is the one route: the environment retargets nothing
    monkeypatch.setenv("REPRO_CAPTURE_TRANSPORT", "http")
    assert make_world()[2].transport == "mqttsn"
    env, net, manager, devices = make_world(transport="coap")
    assert manager.transport == "coap"

    def scenario(env):
        client = yield from manager.deploy_client(devices[0])
        assert client.transport.name == "coap"
        wf = Workflow("e", client)
        yield from wf.begin()
        yield from wf.end(drain=True)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    assert manager.records_ingested == 2


def test_unknown_transport_is_rejected_at_construction():
    net = Network(Environment(), seed=1)
    with pytest.raises(ValueError, match="'avian-carrier'"):
        ProvenanceManager(net, transport="avian-carrier")
    assert net.hosts == {}  # rejected before any side effect


def test_mixed_transports_share_one_backend():
    env, net, manager, devices = make_world()

    def scenario(env):
        mqtt_client = yield from manager.deploy_client(devices[0])
        coap_client = yield from manager.deploy_client(devices[1],
                                                       transport="coap")
        for tag, client in (("m", mqtt_client), ("k", coap_client)):
            wf = Workflow(tag, client)
            yield from wf.begin()
            task = Task(0, wf)
            yield from task.begin([])
            yield from task.end([])
            yield from wf.end(drain=True)
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    # 2 workflows x (wf begin/end + task begin/end) via two transports
    assert manager.records_ingested == 8


def test_every_sink_persists_into_the_managers_one_dedup_state(tmp_path):
    """The manager's ``dedup_state_path`` reaches the sinks it deploys
    on demand, and they share the MQTT-SN server's index: a second index
    on the file would compact it away under the first one's handle."""
    state_path = str(tmp_path / "dedup.jsonl")
    env = Environment()
    net = Network(env, seed=8)
    manager = ProvenanceManager(
        net, server=ServerConfig(dedup_state_path=state_path)
    )
    clients = []

    def run(device, transport):
        topic = f"provlight/{device.name}/data"
        endpoint = yield from manager._ensure_sink(transport, topic)
        config = CaptureConfig(transport=transport, durable=True,
                               journal_dir=str(tmp_path / "journals"))
        client = create_client(device, endpoint, topic, config)
        clients.append(client)
        yield from client.setup()
        wf = Workflow(transport, client)
        yield from wf.begin()
        yield from Task(0, wf).begin([])
        yield from wf.end(drain=True)

    for transport in ("mqttsn", "coap", "http"):
        device = Device(env, A8M3, name=f"edge-{transport}")
        net.add_host(device.name, device=device)
        net.connect(device.name, manager.host_name, bandwidth_bps=1e9,
                    latency_s=0.01)
        env.process(run(device, transport))
    env.run(until=60)
    assert manager.records_ingested == 9
    for sink, _ in manager._sinks.values():
        assert sink.front.deduper is manager.server.front.deduper
    manager.server.front.deduper.close()

    recovered = ReplayDeduper(state_path=state_path)
    for client in clients:
        assert client.journal.pending == 0
        assert recovered.seen(client.client_id, 3)
        assert not recovered.seen(client.client_id, 4)
    recovered.close()
