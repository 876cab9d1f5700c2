"""Benchmark: ablation of ProvLight's design choices (paper Section VII-A).

The paper attributes the gains to four choices; this bench toggles each
one on the 0.5 s / 100-attribute workload and prints its contribution:

* async MQTT-SN/UDP vs blocking HTTP/TCP (the dominant factor),
* payload compression,
* grouping of ended-task records,
* the simplified data model (dominant for memory).
"""

import numpy as np
from conftest import run_once

from repro.baselines.ablations import VerboseModelProvLightClient
from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, ProvLightServer
from repro.device import A8M3, Device
from repro.harness import default_repetitions
from repro.http import HttpResponse, HttpServer
from repro.metrics import mean_ci, render_table
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

CONFIG = SyntheticWorkloadConfig(attributes_per_task=100, task_duration_s=0.5)


def _run_variant(variant: str, seed: int):
    env = Environment()
    net = Network(env, seed=seed)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    result = {}

    if variant == "sync-http":
        HttpServer(net.hosts["cloud"], 5000, lambda r: HttpResponse(status=201))
        client = create_client(dev, ("cloud", 5000), "/provlight",
                               CaptureConfig(transport="http"))
        env.process(synthetic_workload(env, client, CONFIG,
                                       rng=np.random.default_rng(seed), result=result))
    else:
        server = ProvLightServer(net.hosts["cloud"], CallableBackend(lambda r: None))
        config = CaptureConfig()
        build = create_client
        if variant == "no-compression":
            config = config.with_(compress=False)
        elif variant == "grouping-50":
            config = config.with_(group_size=50)
        elif variant == "verbose-model":
            build = VerboseModelProvLightClient
        client = build(dev, server.endpoint, "abl/edge", config)

        def scenario(env):
            yield from server.pool.attach("abl/#")
            yield from synthetic_workload(env, client, CONFIG,
                                          rng=np.random.default_rng(seed),
                                          result=result)

        env.process(scenario(env))
    env.run(until=200)
    nominal = CONFIG.nominal_duration_s()
    return {
        "overhead": result["elapsed"] / nominal - 1.0,
        # utilization over the workflow window (not the drain tail)
        "cpu": dev.cpu.busy_time("capture") / result["elapsed"],
        "mem": (dev.memory.peak("capture-static")
                + dev.memory.peak("capture-buffers")) / dev.spec.ram_bytes,
        "bytes": client.payload_bytes.total,
    }


VARIANTS = ["full", "grouping-50", "no-compression", "verbose-model", "sync-http"]


def run_ablation(reps: int):
    rows = []
    measured = {}
    for variant in VARIANTS:
        samples = [_run_variant(variant, seed + 1) for seed in range(reps)]
        overhead = mean_ci([s["overhead"] for s in samples])
        measured[variant] = {
            "overhead": overhead.mean,
            "cpu": float(np.mean([s["cpu"] for s in samples])),
            "mem": float(np.mean([s["mem"] for s in samples])),
            "bytes": float(np.mean([s["bytes"] for s in samples])),
        }
        m = measured[variant]
        rows.append([
            variant,
            overhead.as_percent(),
            f"{m['cpu'] * 100:.2f}%",
            f"{m['mem'] * 100:.2f}%",
            f"{m['bytes'] / 1024:.1f} KB",
        ])
    text = render_table(
        "Ablation - ProvLight design choices (0.5s tasks, 100 attrs)",
        ["variant", "time overhead", "capture CPU", "capture memory", "payload bytes"],
        rows,
        note=(
            "paper VII-A: the async protocol dominates capture time/CPU; the "
            "simplified data model dominates memory and trims time/CPU further"
        ),
    )
    return text, measured


def test_ablation_design_choices(benchmark, show):
    text, m = run_once(benchmark, lambda: run_ablation(default_repetitions(fallback=2)))
    show(text)
    # protocol is the dominant factor for capture time (paper's main claim)
    assert m["sync-http"]["overhead"] > 5 * m["full"]["overhead"]
    # the simplified model is the dominant factor for memory
    assert m["verbose-model"]["mem"] > 1.5 * m["full"]["mem"]
    # verbose model also costs extra capture time and CPU
    assert m["verbose-model"]["overhead"] > m["full"]["overhead"]
    assert m["verbose-model"]["cpu"] > m["full"]["cpu"]
    # compression reduces bytes on the wire
    assert m["no-compression"]["bytes"] > m["full"]["bytes"]
    # grouping reduces overhead a little (never increases it)
    assert m["grouping-50"]["overhead"] <= m["full"]["overhead"] * 1.02
