"""Tests for the ProvLight ablation variants."""

import json

import numpy as np
import pytest

from repro.baselines.ablations import SyncHttpProvLightClient, VerboseModelProvLightClient
from repro.core import CallableBackend, ProvLightClient, ProvLightServer, decode_payload
from repro.device import A8M3, Device
from repro.http import HttpResponse, HttpServer
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

CONFIG = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.1,
                                 attributes_per_task=100)


def run_sync_http(compress=True):
    env = Environment()
    net = Network(env, seed=6)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    bodies = []

    def handler(request):
        bodies.append(request.body)
        return HttpResponse(status=201)

    HttpServer(net.hosts["cloud"], 5000, handler)
    client = SyncHttpProvLightClient(dev, ("cloud", 5000), compress=compress)
    result = {}
    env.process(synthetic_workload(env, client, CONFIG,
                                   rng=np.random.default_rng(1), result=result))
    env.run()
    return result, bodies, dev


def run_real(group_size=0, verbose=False):
    env = Environment()
    net = Network(env, seed=6)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    sink = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
    cls = VerboseModelProvLightClient if verbose else ProvLightClient
    client = cls(dev, server.endpoint, "abl/edge", group_size=group_size)
    result = {}

    def scenario(env):
        yield from server.pool.attach("abl/#")
        yield from synthetic_workload(env, client, CONFIG,
                                      rng=np.random.default_rng(1), result=result)
        yield env.timeout(30)

    env.process(scenario(env))
    env.run()
    return result, sink, dev, client


def test_sync_http_bodies_are_provlight_binary():
    result, bodies, dev = run_sync_http()
    record = decode_payload(bodies[1])  # first task_begin
    assert record["kind"] == "task_begin"


def test_sync_transport_is_the_dominant_cost():
    """Removing only the async transport must reproduce baseline-like
    blocking overhead — the paper's 'major impact' claim."""
    sync_result, _, _ = run_sync_http()
    real_result, _, _, _ = run_real()
    nominal = CONFIG.nominal_duration_s()
    sync_overhead = sync_result["elapsed"] / nominal - 1
    real_overhead = real_result["elapsed"] / nominal - 1
    # blocking transport costs at least 5x the async design
    assert sync_overhead > 5 * real_overhead
    # and the RTT (46ms) per call dominates its cost
    assert sync_overhead > 0.5


def test_verbose_model_costs_memory_and_cpu():
    real_result, _, dev_real, client_real = run_real()
    verbose_result, sink, dev_verbose, client_verbose = run_real(verbose=True)
    # the simplified model's memory advantage (paper: 'major impact')
    assert (dev_verbose.memory.peak("capture-static")
            > 1.5 * dev_real.memory.peak("capture-static"))
    # verbose payloads are bigger on the wire
    assert client_verbose.payload_bytes.total > client_real.payload_bytes.total
    # and capture time grows measurably
    assert verbose_result["elapsed"] > real_result["elapsed"]


def test_verbose_records_still_translate():
    _, sink, _, _ = run_real(verbose=True)
    finished = [r for r in sink if r.get("status") == "FINISHED"]
    assert len(finished) == 10  # lineage survives the verbose envelope


def test_compression_flag_matters_for_sync_variant():
    _, bodies_c, _ = run_sync_http(compress=True)
    _, bodies_u, _ = run_sync_http(compress=False)
    assert sum(map(len, bodies_c)) < sum(map(len, bodies_u))


def test_sync_variant_rejects_grouping():
    env = Environment()
    net = Network(env, seed=1)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    client = SyncHttpProvLightClient(dev, ("cloud", 5000))
    assert not client.supports_grouping()
