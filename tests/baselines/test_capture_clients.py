"""Tests for the ProvLake/DfAnalyzer baseline capture clients."""

import json

import pytest

from repro.baselines import DfAnalyzerCaptureClient, NullCaptureClient, ProvLakeClient
from repro.core import Data, Task, Workflow
from repro.device import A8M3, Device
from repro.http import HttpResponse, HttpServer
from repro.net import Network
from repro.simkernel import Environment


def make_world(latency=0.023, bandwidth=1e9):
    env = Environment()
    net = Network(env, seed=4)
    edge_dev = Device(env, A8M3, name="edge-dev")
    net.add_host("edge", device=edge_dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=bandwidth, latency_s=latency)
    received = []

    def handler(request):
        received.append(json.loads(request.body.decode()))
        return HttpResponse(status=201, reason="Created")

    server = HttpServer(net.hosts["cloud"], 5000, handler)
    return env, net, edge_dev, server, received


def run_instrumented(env, client, n_tasks=2, attrs=10, task_duration=0.05):
    result = {}

    def proc(env):
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()
        t0 = env.now
        for i in range(n_tasks):
            task = Task(i, workflow, transformation_id=0)
            yield from task.begin([Data(f"in{i}", 1, {"in": [1] * attrs})])
            yield env.timeout(task_duration)
            yield from task.end([Data(f"out{i}", 1, {"out": [2] * attrs},
                                      derivations=[f"in{i}"])])
        result["elapsed"] = env.now - t0
        yield from workflow.end()

    env.process(proc(env))
    return result


def test_provlake_posts_every_record():
    env, net, dev, server, received = make_world()
    client = ProvLakeClient(dev, ("cloud", 5000))
    run_instrumented(env, client, n_tasks=3)
    env.run()
    # 2 workflow events + 6 task events, one POST each (no grouping)
    assert len(received) == 8
    assert client.transport.requests_sent.count == 8


def test_provlake_message_format():
    env, net, dev, server, received = make_world()
    client = ProvLakeClient(dev, ("cloud", 5000))
    run_instrumented(env, client, n_tasks=1, attrs=3)
    env.run()
    task_msgs = [m for m in received if m["messages"][0]["prov_obj"] == "task"]
    begin = task_msgs[0]["messages"][0]
    assert begin["act_type"] == "task_begin"
    assert begin["used"]["in0"]["attributes"]["in"] == [1, 1, 1]
    assert "@context" in task_msgs[0]


def test_provlake_capture_blocks_for_network_roundtrip():
    env, net, dev, server, received = make_world(latency=0.023)
    client = ProvLakeClient(dev, ("cloud", 5000))
    timing = {}

    def proc(env):
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()  # pays TCP handshake
        task = Task(0, workflow)
        t0 = env.now
        yield from task.begin([Data("in0", 1, {"in": [1] * 10})])
        timing["call"] = env.now - t0
        yield from task.end()
        yield from workflow.end()

    env.process(proc(env))
    env.run()
    # paper Table II: ~142 ms per ProvLake capture call on the edge
    assert 0.120 < timing["call"] < 0.165


def test_dfanalyzer_capture_call_duration():
    env, net, dev, server, received = make_world(latency=0.023)
    client = DfAnalyzerCaptureClient(dev, ("cloud", 5000))
    timing = {}

    def proc(env):
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()
        task = Task(0, workflow)
        t0 = env.now
        yield from task.begin([Data("in0", 1, {"in": [1] * 10})])
        timing["call"] = env.now - t0
        yield from task.end()
        yield from workflow.end()

    env.process(proc(env))
    env.run()
    # paper Table II: ~100 ms per DfAnalyzer capture call on the edge
    assert 0.085 < timing["call"] < 0.115


def test_provlake_grouping_reduces_requests():
    env, net, dev, server, received = make_world()
    client = ProvLakeClient(dev, ("cloud", 5000), group_size=10)
    run_instrumented(env, client, n_tasks=10)
    env.run()
    # ProvLake groups *all* messages: 22 records -> 2 full groups + flush
    assert client.transport.requests_sent.count == 3


def test_provlake_grouped_envelope_shared():
    env, net, dev, server, received = make_world()
    client = ProvLakeClient(dev, ("cloud", 5000), group_size=5)
    run_instrumented(env, client, n_tasks=5, attrs=100)
    env.run()
    # 12 records (2 wf + 10 task) -> two full groups of 5 + a final flush
    grouped = [m for m in received if len(m["messages"]) == 5]
    assert len(grouped) == 2
    assert sum(len(m["messages"]) for m in received) == 12


def test_dfanalyzer_rejects_grouping():
    env, net, dev, server, received = make_world()
    client = DfAnalyzerCaptureClient(dev, ("cloud", 5000))
    assert not client.supports_grouping()
    with pytest.raises(ValueError):
        ProvLakeClientNoGrouping = DfAnalyzerCaptureClient
        # constructing a grouped DfAnalyzer client must fail
        from repro.baselines.common import BlockingHttpCaptureClient

        class Grouped(DfAnalyzerCaptureClient):
            def __init__(self, device, server):
                self.costs = client.costs
                BlockingHttpCaptureClient.__init__(
                    self, device, server, "/pde/task", lib_bytes=1, group_size=5
                )

        Grouped(dev, ("cloud", 5000))


def test_dfanalyzer_message_format():
    env, net, dev, server, received = make_world()
    client = DfAnalyzerCaptureClient(dev, ("cloud", 5000))
    run_instrumented(env, client, n_tasks=1, attrs=2)
    env.run()
    task_msgs = [m for m in received if m["messages"][0]["object"] == "task"]
    begin = task_msgs[0]["messages"][0]
    assert begin["status"] == "RUNNING"
    assert begin["sets"][0]["tag"] == "in0"
    assert begin["sets"][0]["elements"] == [{"in": [1, 1]}]


def test_capture_survives_missing_server():
    env = Environment()
    net = Network(env, seed=1)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("void")
    net.connect("edge", "void", bandwidth_bps=1e9, latency_s=0.001)
    client = ProvLakeClient(dev, ("void", 5000))
    finished = {}

    def proc(env):
        yield from client.setup()
        workflow = Workflow(1, client)
        yield from workflow.begin()  # server missing: error swallowed
        finished["ok"] = True

    env.process(proc(env))
    env.run()
    assert finished["ok"]
    assert client.transport.capture_errors.count == 1


def test_memory_static_footprints_differ():
    env, net, dev, server, received = make_world()
    pl = ProvLakeClient(dev, ("cloud", 5000))
    assert dev.memory.used("capture-static") > 15_000_000  # heavier than ProvLight
    pl.close()
    assert dev.memory.used("capture-static") == 0


def test_provlake_json_bigger_than_provlight_binary():
    from repro.core import encode_payload

    env, net, dev, server, received = make_world()
    client = ProvLakeClient(dev, ("cloud", 5000))
    record = {
        "kind": "task_end", "workflow_id": 1, "task_id": 3,
        "transformation_id": 0, "dependencies": [2], "time": 1.5,
        "status": "finished",
        "data": [{"id": "out3", "workflow_id": 1, "derivations": ["in3"],
                  "attributes": {"out": [2] * 100}}],
    }
    json_body = client.render_body([record])
    binary = encode_payload(record)
    assert len(json_body) > 2 * len(binary)


def test_null_capture_client_is_free():
    env = Environment()
    dev = Device(env, A8M3)
    client = NullCaptureClient(dev)
    timing = {}

    def proc(env):
        workflow = Workflow(1, client)
        yield from workflow.begin()
        task = Task(0, workflow)
        yield from task.begin([Data("in0", 1, {"in": [1] * 100})])
        yield from task.end()
        yield from workflow.end()
        timing["elapsed"] = env.now

    env.process(proc(env))
    env.run()
    assert timing["elapsed"] == 0.0
    assert client.records_captured.count == 4
