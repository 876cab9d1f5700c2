"""API-surface and behaviour tests for :mod:`repro.capture`.

Pins the public surface (``__all__``), the config validation, the
registry contracts, and the ``close()`` teardown semantics (sender
process stopped, queued buffers freed, pending drains failed).
"""

import pytest

import repro.capture as capture
from repro.capture import (
    CaptureClient,
    CaptureClosedError,
    CaptureConfig,
    CaptureTransport,
    create_client,
    register_transport,
    transport_names,
    unregister_transport,
)
from repro.core import CallableBackend, Data, ProvLightServer, Task, Workflow
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment

#: the public surface of the unified capture API — additions are fine
#: but must be deliberate (update this list *and* the docs)
EXPECTED_ALL = [
    "CaptureClient",
    "CaptureClosedError",
    "CaptureConfig",
    "CaptureJournal",
    "CaptureSenderError",
    "CaptureTransport",
    "DEFAULT_TRANSPORT",
    "EcdsaRecordSigner",
    "HmacRecordSigner",
    "JournalError",
    "ReplayDeduper",
    "TamperError",
    "create_client",
    "create_transport",
    "deploy_capture_sink",
    "get_transport_factory",
    "normalize_transport",
    "register_transport",
    "transport_names",
    "unregister_transport",
    "unwrap_payload",
    "wrap_payload",
]


def test_public_surface_is_pinned():
    assert sorted(capture.__all__) == sorted(EXPECTED_ALL)
    for name in capture.__all__:
        assert hasattr(capture, name), f"__all__ names missing symbol {name}"


def test_builtin_transports_registered():
    names = transport_names()
    assert set(names) >= {"mqttsn", "coap", "http"}


def test_aliases_resolve():
    assert capture.normalize_transport("MQTT-SN") == "mqttsn"
    assert capture.normalize_transport("http-blocking") == "http"
    assert capture.get_transport_factory("mqtt-sn") is (
        capture.get_transport_factory("mqttsn")
    )


def test_unknown_transport_fails_loudly():
    with pytest.raises(ValueError, match="unknown capture transport"):
        capture.get_transport_factory("carrier-pigeon")


def test_duplicate_registration_rejected():
    def factory(device, server, topic, config):  # pragma: no cover
        raise AssertionError("never constructed")

    register_transport("test-dup", factory)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_transport("test-dup", factory)
        register_transport("test-dup", factory, replace=True)  # explicit wins
    finally:
        unregister_transport("test-dup")


def test_register_transport_decorator_form():
    @register_transport("test-decorated")
    class DummyTransport(CaptureTransport):
        name = "test-decorated"

        def __init__(self, device, server, topic, config):
            pass

    try:
        assert capture.get_transport_factory("test-decorated") is DummyTransport
    finally:
        unregister_transport("test-decorated")


def test_config_validation():
    with pytest.raises(ValueError, match="group_size"):
        CaptureConfig(group_size=-1)
    with pytest.raises(ValueError, match="qos"):
        CaptureConfig(qos=3)
    with pytest.raises(ValueError, match="transport"):
        CaptureConfig(transport="")


def test_config_with_and_describe():
    config = CaptureConfig()
    varied = config.with_(transport="coap", group_size=10, compress=False)
    assert config.transport == "mqttsn" and config.group_size == 0
    assert varied.transport == "coap" and varied.group_size == 10
    assert "coap" in varied.describe() and "group=10" in varied.describe()


def make_world(bandwidth=1e9, latency=0.01):
    env = Environment()
    net = Network(env, seed=9)
    dev = Device(env, A8M3, name="edge-dev")
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=bandwidth, latency_s=latency)
    sink = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
    client = create_client(dev, server.endpoint, "api/edge/data")
    return env, net, dev, server, client, sink


def test_create_client_overrides():
    env, net, dev, server, client, sink = make_world()
    grouped = create_client(dev, server.endpoint, "api/edge/grouped",
                            group_size=5, compress=False)
    assert grouped.group_buffer.group_size == 5
    assert grouped.compress is False
    assert isinstance(grouped, CaptureClient)


def test_close_tears_down_sender_and_fails_drain_waiters():
    """Regression: ``close()`` used to leave the background sender alive
    and queued ``capture-buffers`` allocations outstanding forever."""
    # a 25 Kbit link so several encoded records are still queued when we
    # pull the plug
    env, net, dev, server, client, sink = make_world(bandwidth=25e3)
    outcome = {}

    def scenario(env):
        yield from server.pool.attach("api/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(4):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"in": [1.0] * 100})])
            yield from task.end([Data(f"out{i}", 1, {"out": [2.0] * 100})])
        outcome["queued"] = len(client._queue.items)

        def drainer(env):
            try:
                yield from client.drain()
                outcome["drain_failed"] = False
            except CaptureClosedError:
                outcome["drain_failed"] = True

        env.process(drainer(env))
        yield env.timeout(0.5)  # the first messages crawl onto the wire
        client.close()
        outcome["buffers_after_close"] = dev.memory.used("capture-buffers")
        yield env.timeout(60)  # in-flight QoS exchange settles either way

    env.process(scenario(env))
    env.run()
    assert outcome["queued"] > 0, "workload never saturated the queue"
    assert outcome["drain_failed"] is True
    # queued payloads were dropped and their buffers freed at close();
    # at most the single in-flight message could still be accounted then
    assert outcome["buffers_after_close"] <= 1000
    # ...and nothing leaks once the in-flight exchange resolves
    assert dev.memory.used("capture-buffers") == 0
    assert dev.memory.used("capture-static") == 0
    # the background sender exited instead of blocking forever
    assert client._sender.triggered
    assert client.closed


def test_close_without_traffic_is_clean():
    env, net, dev, server, client, sink = make_world()
    client.close()
    assert dev.memory.used("capture-static") == 0
    env.run(until=1)  # sender wakes on the close sentinel and exits
    assert client._sender.triggered


def test_drain_after_close_raises_instead_of_hanging():
    """A post-close drain can never resolve (the sender is gone), so it
    must fail loudly rather than park the caller forever."""
    env, net, dev, server, client, sink = make_world()
    client.close()
    outcome = {}

    def late_drainer(env):
        try:
            yield from client.drain()
            outcome["raised"] = False
        except CaptureClosedError:
            outcome["raised"] = True

    env.process(late_drainer(env))
    env.run(until=5)
    assert outcome["raised"] is True


def test_unregister_builtin_is_recoverable():
    """Built-ins reload after unregister_transport (module import side
    effects cannot re-run, so the registry restores the factory)."""
    factory = capture.get_transport_factory("coap")
    unregister_transport("coap")
    assert capture.get_transport_factory("coap") is factory
    assert "coap" in transport_names()


def test_deploy_capture_sink_rejects_unknown_transport():
    from repro.capture import deploy_capture_sink

    env = Environment()
    net = Network(env, seed=2)
    host = net.add_host("cloud")
    with pytest.raises(ValueError, match="no capture sink"):
        deploy_capture_sink("smoke-signals", host, lambda records: None)


def test_check_sink_knows_every_builtin_transport_and_only_them():
    from repro.capture.sinks import check_sink

    for name in transport_names() + ("MQTT-SN",):
        check_sink(name)
    with pytest.raises(ValueError, match="no capture sink"):
        check_sink("smoke-signals")


def test_deploy_capture_sink_builds_the_mqttsn_server_from_its_config():
    from repro.capture import deploy_capture_sink
    from repro.core import ServerConfig

    env = Environment()
    net = Network(env, seed=2)
    host = net.add_host("cloud")
    config = ServerConfig(workers=3, broker_shards=2, broker_placement="p2c",
                          pool_min=1, pool_max=4)
    sink, endpoint = deploy_capture_sink("mqttsn", host, lambda records: None,
                                         server=config)
    assert isinstance(sink, ProvLightServer)
    assert endpoint == sink.endpoint == ("cloud", 1883)
    assert sink.config is config
    assert len(sink.broker.shards) == 2
    assert len(sink.pool) == 3
    assert (sink.pool.min_workers, sink.pool.max_workers) == (1, 4)
