"""Benchmark: transport protocols for ProvLight capture.

Extension beyond the paper: the same ProvLight capture pipeline over
three transports — MQTT-SN QoS 2 on UDP (the paper's choice), CoAP
CON/ACK on UDP (the RFC 7252 alternative the paper's Section III cites),
and blocking HTTP/1.1 on TCP (what the baselines do).  Confirms the
paper's argument that the *asynchronous UDP-based* transports are
interchangeable for workflow overhead, while the blocking TCP path is
the outlier.

Every variant goes through the same :class:`repro.capture.CaptureClient`
façade via registry lookup (``create_client`` + ``CaptureConfig``): the
client-side critical path — cost charging, encoding, memory accounting,
sender loop — is one code path, so the measured differences are
attributable to the transport adapters alone.
"""

import numpy as np
from conftest import run_once

from repro.capture import CaptureConfig, create_client
from repro.coap import ProvLightCoapServer
from repro.core import CallableBackend, ProvLightServer
from repro.device import A8M3, Device
from repro.harness import default_repetitions
from repro.http import HttpResponse, HttpServer
from repro.metrics import mean_ci, render_table
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

CONFIG = SyntheticWorkloadConfig(attributes_per_task=100, task_duration_s=0.5)


def _run(transport: str, seed: int):
    env = Environment()
    net = Network(env, seed=seed)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    result = {}
    capture = CaptureConfig(transport=transport)

    if transport == "http-blocking":
        HttpServer(net.hosts["cloud"], 5000, lambda r: HttpResponse(status=201))
        client = create_client(dev, ("cloud", 5000), "/provlight", capture)
        env.process(synthetic_workload(env, client, CONFIG,
                                       rng=np.random.default_rng(seed), result=result))
    elif transport == "coap":
        server = ProvLightCoapServer(net.hosts["cloud"], CallableBackend(lambda r: None))
        client = create_client(dev, server.endpoint, "/prov", capture)
        env.process(synthetic_workload(env, client, CONFIG,
                                       rng=np.random.default_rng(seed), result=result))
    else:  # mqtt-sn
        server = ProvLightServer(net.hosts["cloud"], CallableBackend(lambda r: None))
        client = create_client(dev, server.endpoint, "p/edge", capture)

        def scenario(env):
            yield from server.pool.attach("p/#")
            yield from synthetic_workload(env, client, CONFIG,
                                          rng=np.random.default_rng(seed),
                                          result=result)

        env.process(scenario(env))
    env.run(until=200)
    return {
        "overhead": result["elapsed"] / CONFIG.nominal_duration_s() - 1.0,
        "device_bytes": dev.radio.tx.total + dev.radio.rx.total,
    }


TRANSPORTS = ["mqtt-sn", "coap", "http-blocking"]


def run_comparison(reps: int):
    rows, measured = [], {}
    for transport in TRANSPORTS:
        samples = [_run(transport, seed + 1) for seed in range(reps)]
        ci = mean_ci([s["overhead"] for s in samples])
        measured[transport] = {
            "overhead": ci.mean,
            "bytes": float(np.mean([s["device_bytes"] for s in samples])),
        }
        rows.append([
            transport,
            ci.as_percent(),
            f"{measured[transport]['bytes'] / 1024:.1f} KB",
        ])
    text = render_table(
        "Transport comparison for ProvLight capture (0.5s tasks, 100 attrs)",
        ["transport", "time overhead", "device bytes (tx+rx)"],
        rows,
        note="async UDP transports are equivalent for overhead; blocking TCP is the outlier",
    )
    return text, measured


def test_protocol_comparison(benchmark, show):
    text, m = run_once(benchmark, lambda: run_comparison(default_repetitions(fallback=2)))
    show(text)
    # both async transports achieve the paper's low overhead
    assert m["mqtt-sn"]["overhead"] < 0.03
    assert m["coap"]["overhead"] < 0.03
    # and they are within 20% of each other
    assert abs(m["coap"]["overhead"] - m["mqtt-sn"]["overhead"]) < 0.2 * m["mqtt-sn"]["overhead"] + 0.001
    # the blocking transport is an order of magnitude worse
    assert m["http-blocking"]["overhead"] > 5 * m["mqtt-sn"]["overhead"]
    # CoAP's 2-packet exchange moves fewer bytes than QoS 2's 4 packets
    assert m["coap"]["bytes"] < m["mqtt-sn"]["bytes"]
