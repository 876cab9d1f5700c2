"""Failure-injection tests: capture must degrade gracefully, never crash
the instrumented workflow, and honour its delivery contracts under loss.
"""

import numpy as np
import pytest

from repro.core import CallableBackend, Data, ProvLightClient, ProvLightServer, Task, Workflow
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import SyntheticWorkloadConfig, synthetic_workload


def lossy_world(loss, seed=5):
    env = Environment()
    net = Network(env, seed=seed)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01, loss=loss)
    sink = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
    client = ProvLightClient(dev, server.endpoint, "provlight/edge",
                             client_id="lossy-edge")
    return env, net, dev, server, client, sink


def test_qos2_delivers_exactly_once_under_heavy_loss():
    env, net, dev, server, client, sink = lossy_world(loss=0.30)
    # faster retries so the run converges quickly
    client.mqtt.retry_interval_s = 0.3
    server.broker.retry_interval_s = 0.3

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(10):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"v": i})])
            yield env.timeout(0.05)
            yield from task.end([Data(f"out{i}", 1, {"v": i + 100})])
        yield from wf.end(drain=True)
        yield env.timeout(30)

    env.process(scenario(env))
    env.run()
    finished = [r for r in sink if r.get("status") == "FINISHED"]
    running = [r for r in sink if r.get("status") == "RUNNING"]
    # exactly-once: all 10 task ends, no duplicates
    assert sorted(r["task_id"] for r in finished) == list(range(10))
    assert sorted(r["task_id"] for r in running) == list(range(10))


def test_workflow_survives_total_broker_outage():
    """No broker at all: capture times out in the background; the
    workflow still completes every task."""
    env = Environment()
    net = Network(env, seed=1)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")  # nothing listening
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    client = ProvLightClient(dev, ("cloud", 1883), "provlight/edge")
    client.mqtt.retry_interval_s = 0.2
    client.mqtt.max_retries = 2
    done = {}

    def scenario(env):
        try:
            yield from client.setup()
        except Exception:
            done["setup_failed"] = True
            return

    env.process(scenario(env))
    env.run()
    assert done.get("setup_failed")  # connect times out, reported cleanly


def test_capture_queue_drains_after_bandwidth_recovery():
    """Bandwidth collapses mid-run and recovers: queued records all arrive."""
    env, net, dev, server, client, sink = lossy_world(loss=0.0)
    config = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.1,
                                     attributes_per_task=100)

    def chaos(env):
        yield env.timeout(0.3)
        net.configure_link("edge", "cloud", bandwidth_bps=5e3)  # collapse
        yield env.timeout(1.0)
        net.configure_link("edge", "cloud", bandwidth_bps=1e9)  # recover

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        result = {}
        yield from synthetic_workload(env, client, config,
                                      rng=np.random.default_rng(1), result=result)
        yield from client.drain()
        yield env.timeout(30)

    env.process(chaos(env))
    env.process(scenario(env))
    env.run()
    finished = [r for r in sink if r.get("status") == "FINISHED"]
    assert len(finished) == 10  # nothing lost across the bandwidth dip


def test_baseline_capture_survives_server_crash_midway():
    """The HTTP server disappears after a few requests: ProvLake logs
    errors but the workflow completes."""
    from repro.baselines import ProvLakeClient
    from repro.http import HttpResponse, HttpServer

    env = Environment()
    net = Network(env, seed=3)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    served = {"n": 0}

    def handler(request):
        served["n"] += 1
        return HttpResponse(status=201)

    server = HttpServer(net.hosts["cloud"], 5000, handler)
    client = ProvLakeClient(dev, ("cloud", 5000))
    done = {}

    def crash(env):
        yield env.timeout(0.35)
        server.listener.close()
        for conn in list(net.hosts["cloud"]._tcp_conns.values()):
            conn.abort()

    def scenario(env):
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(4):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"v": i})])
            yield env.timeout(0.1)
            yield from task.end()
        yield from wf.end()
        done["completed"] = True

    env.process(crash(env))
    env.process(scenario(env))
    env.run()
    assert done.get("completed")
    assert served["n"] >= 1
    assert client.capture_errors.count >= 1


def test_mqtt_timeout_does_not_crash_sender_loop():
    """If a QoS2 exchange exhausts retries, the record is dropped but the
    sender keeps processing subsequent records."""
    env, net, dev, server, client, sink = lossy_world(loss=0.0)
    client.mqtt.retry_interval_s = 0.1
    client.mqtt.max_retries = 1

    def blackout(env):
        # drop everything while the first task end is in flight
        yield env.timeout(0.11)
        net.configure_link("edge", "cloud", loss=0.999999 * 0.999)
        yield env.timeout(1.0)
        net.configure_link("edge", "cloud", loss=0.0)

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(5):
            task = Task(i, wf)
            yield from task.begin([])
            yield env.timeout(0.3)
            yield from task.end()
        yield from wf.end(drain=True)
        yield env.timeout(20)

    env.process(blackout(env))
    env.process(scenario(env))
    env.run()
    # later records made it even though earlier ones may have been dropped
    finished_ids = {r["task_id"] for r in sink if r.get("status") == "FINISHED"}
    assert 4 in finished_ids


def test_overhead_unaffected_by_moderate_loss():
    """Packet loss hits the background QoS exchange, not the workflow."""
    config = SyntheticWorkloadConfig(number_of_tasks=20, task_duration_s=0.2)
    results = {}
    for label, loss in [("clean", 0.0), ("lossy", 0.10)]:
        env, net, dev, server, client, sink = lossy_world(loss=loss, seed=9)
        client.mqtt.retry_interval_s = 0.3
        result = {}

        def scenario(env, client=client, server=server, result=result):
            yield from server.pool.attach("provlight/#")
            yield from synthetic_workload(env, client, config,
                                          rng=np.random.default_rng(7),
                                          result=result)

        env.process(scenario(env))
        env.run(until=300)
        results[label] = result["elapsed"]
    # loss changes workflow elapsed by well under a millisecond per task
    assert results["lossy"] == pytest.approx(results["clean"], rel=0.01)
