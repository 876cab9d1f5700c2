"""Transport-conformance suite for the unified capture API.

Every registered transport must honour the same contracts behind the
:class:`repro.capture.CaptureClient` façade: idempotent ``setup()``,
``drain()`` completing after ``flush_groups()``, message loss never
crashing the instrumented workflow, and ``close()`` tearing everything
down.  The suite runs parametrically against the full registry, so a
new transport inherits the whole bar by registering itself.
"""

import pytest

from repro.capture import (
    CaptureClosedError,
    CaptureConfig,
    create_client,
    transport_names,
)
from repro.coap import ProvLightCoapServer
from repro.core import CallableBackend, Data, ProvLightServer, Task, Workflow
from repro.device import A8M3, Device
from repro.http import HttpResponse, HttpServer
from repro.net import Network
from repro.simkernel import Environment

ALL_TRANSPORTS = transport_names()


@pytest.fixture(params=[False, True], ids=["besteffort", "durable"])
def durable(request):
    """Run every conformance test twice: best-effort and durable.

    The durable client adds a write-ahead journal, a dedup envelope and
    the reconnect machinery — none of which may change the façade's
    observable contracts on a healthy network.
    """
    return request.param


def make_world(transport, group_size=0, latency=0.01, bandwidth=1e9,
               loss=0.0, with_server=True, durable=False, journal_dir=None):
    """One edge device + the capture sink matching ``transport``.

    Returns ``(env, device, client, received)`` where ``received``
    counts payload arrivals at the sink (transport-agnostic).
    """
    env = Environment()
    net = Network(env, seed=7)
    dev = Device(env, A8M3, name="edge-dev")
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=bandwidth, latency_s=latency,
                loss=loss)
    received = []
    config = CaptureConfig(transport=transport, group_size=group_size,
                           durable=durable, journal_dir=journal_dir,
                           reconnect_base_s=0.2, reconnect_max_s=2.0)
    pre = None
    if transport == "mqttsn":
        if with_server:
            server = ProvLightServer(net.hosts["cloud"],
                                     CallableBackend(received.extend))
            pre = server.pool.attach("conf/#")
            endpoint = server.endpoint
        else:
            endpoint = ("cloud", 1883)
        client = create_client(dev, endpoint, "conf/edge/data", config)
        # fast retries so loss/outage runs converge quickly
        client.transport.mqtt.retry_interval_s = 0.2
    elif transport == "coap":
        if with_server:
            server = ProvLightCoapServer(net.hosts["cloud"],
                                         CallableBackend(received.extend))
            endpoint = server.endpoint
        else:
            endpoint = ("cloud", 5683)
        client = create_client(dev, endpoint, "/prov", config)
    elif transport == "http":
        if with_server:
            def handler(request):
                received.append(request.body)
                return HttpResponse(status=201)

            HttpServer(net.hosts["cloud"], 5000, handler)
        client = create_client(dev, ("cloud", 5000), "/provlight", config)
    else:  # a transport someone registered without extending this suite
        pytest.skip(f"no conformance world for transport {transport!r}")
    return env, dev, client, received, pre


def run_workflow(env, client, pre=None, n_tasks=2, attrs=10, drain=True):
    done = {}

    def proc(env):
        if pre is not None:
            yield from pre
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(n_tasks):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"in": [1.0] * attrs})])
            yield env.timeout(0.05)
            yield from task.end([Data(f"out{i}", 1, {"out": [2.0] * attrs},
                                      derivations=[f"in{i}"])])
        yield from wf.end(drain=drain)
        done["ok"] = True

    env.process(proc(env))
    return done


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_setup_is_idempotent(transport, durable, tmp_path):
    env, dev, client, received, pre = make_world(
        transport, durable=durable, journal_dir=str(tmp_path))
    marks = {}

    def proc(env):
        if pre is not None:
            yield from pre
        yield from client.setup()
        marks["after_first"] = env.now
        yield from client.setup()  # must return immediately
        marks["after_second"] = env.now
        wf = Workflow(1, client)
        yield from wf.begin()
        yield from wf.end(drain=True)
        marks["ok"] = True

    env.process(proc(env))
    env.run()
    assert marks["ok"]
    assert marks["after_second"] == marks["after_first"]
    assert client.messages_sent.count == 2


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_records_reach_the_sink(transport, durable, tmp_path):
    env, dev, client, received, pre = make_world(
        transport, durable=durable, journal_dir=str(tmp_path))
    done = run_workflow(env, client, pre, n_tasks=3)
    env.run(until=120)
    assert done["ok"]
    # 2 workflow events + 3 x (begin + end), one message each (no grouping)
    assert client.messages_sent.count == 8
    assert client.records_captured.count == 8
    assert len(received) >= 1  # sink saw traffic (shape is sink-specific)
    assert dev.memory.used("capture-buffers") == 0


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_drain_completes_after_flush(transport, durable, tmp_path):
    env, dev, client, received, pre = make_world(
        transport, group_size=4, durable=durable, journal_dir=str(tmp_path))
    marks = {}

    def proc(env):
        if pre is not None:
            yield from pre
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(2):  # partial group: stays buffered
            task = Task(i, wf)
            yield from task.begin([])
            yield from task.end([Data(f"out{i}", 1, {"v": [i] * 5})])
        assert len(client.group_buffer) == 2
        yield from client.flush_groups()
        assert len(client.group_buffer) == 0
        yield from client.drain()
        marks["drained_at"] = env.now
        # every buffer released once the partial group was forced out
        assert dev.memory.used("capture-buffers") == 0
        yield from wf.end(drain=True)
        marks["ok"] = True

    env.process(proc(env))
    env.run(until=120)
    assert marks["ok"]
    assert dev.memory.used("capture-buffers") == 0


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_loss_never_crashes_the_workflow(transport, durable, tmp_path):
    """Datagram loss (async transports) and server outages (blocking
    HTTP) must degrade to lost records, never to workflow exceptions."""
    if transport == "http":
        # hardest failure for a blocking transport: nothing listening
        env, dev, client, received, pre = make_world(
            transport, with_server=False, durable=durable,
            journal_dir=str(tmp_path))
    else:
        env, dev, client, received, pre = make_world(
            transport, loss=0.25, durable=durable, journal_dir=str(tmp_path))
    done = run_workflow(env, client, pre, n_tasks=3, drain=False)
    env.run(until=300)
    assert done["ok"]
    assert client.records_captured.count == 8


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_close_frees_static_memory(transport, durable, tmp_path):
    env, dev, client, received, pre = make_world(
        transport, durable=durable, journal_dir=str(tmp_path))
    done = run_workflow(env, client, pre, n_tasks=1)
    env.run(until=60)
    assert done["ok"]
    assert dev.memory.used("capture-static") > 0
    client.close()
    client.close()  # idempotent
    assert dev.memory.used("capture-static") == 0
    assert dev.memory.used("capture-buffers") == 0


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_capture_after_close_rejected(transport, durable, tmp_path):
    env, dev, client, received, pre = make_world(
        transport, durable=durable, journal_dir=str(tmp_path))
    done = run_workflow(env, client, pre, n_tasks=1)
    env.run(until=60)
    assert done["ok"]
    client.close()

    def late(env):
        wf = Workflow(2, client)
        with pytest.raises(CaptureClosedError):
            yield from wf.begin()

    env.process(late(env))
    env.run()
