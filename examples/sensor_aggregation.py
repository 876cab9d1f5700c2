"""Sensor aggregation over a constrained network: ProvLight vs ProvLake.

An edge device runs the 5-stage sensor pipeline (sample -> clean ->
aggregate -> detect -> report) on a 25 Kbit/s uplink — the paper's
low-bandwidth scenario.  We run it three times (no capture, ProvLight,
ProvLake) and compare workflow slowdowns, then walk the lineage of a
report back to the raw window through the captured provenance.

Run with:  python examples/sensor_aggregation.py
"""

from repro.baselines import NullCaptureClient, ProvLakeClient
from repro.capture import create_client
from repro.core import CallableBackend, ProvLightServer
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.dfanalyzer import DfAnalyzerService, lineage_of
from repro.http import HttpResponse, HttpServer
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import SensorConfig, sensor_pipeline

BANDWIDTH = 25e3  # the paper's 25 Kbit/s constrained network
DELAY = 0.023


def build_world():
    env = Environment()
    net = Network(env, seed=11)
    edge = Device(env, A8M3, name="sensor-node")
    cloud = Device(env, XEON_GOLD_5220, name="cloud")
    net.add_host("edge", device=edge)
    net.add_host("cloud", device=cloud)
    net.connect("edge", "cloud", bandwidth_bps=BANDWIDTH, latency_s=DELAY)
    return env, net, edge


def run(system: str):
    env, net, edge = build_world()
    backend = DfAnalyzerService(metrics=env.metrics)
    if system == "provlight":
        server = ProvLightServer(net.hosts["cloud"], CallableBackend(backend.ingest))
        client = create_client(edge, server.endpoint, "provlight/sensors")
    elif system == "provlake":
        def handler(request):
            return HttpResponse(status=201, reason="Created")

        HttpServer(net.hosts["cloud"], 5000, handler)
        client = ProvLakeClient(edge, ("cloud", 5000))
        server = None
    else:
        client = NullCaptureClient(edge)
        server = None

    result = {}

    def scenario(env):
        if server is not None:
            yield from server.pool.attach("provlight/#")
        yield from sensor_pipeline(env, client, SensorConfig(windows=8), result)
        result["workflow_elapsed"] = env.now

    env.process(scenario(env))
    env.run(until=600)
    return result, backend, edge


def main() -> None:
    print("=== sensor aggregation on a 25 Kbit/s uplink ===")
    baseline, _, _ = run("null")
    t0 = baseline["workflow_elapsed"]
    print(f"workflow without capture : {t0:.2f}s")

    light, backend, edge = run("provlight")
    t_light = light["workflow_elapsed"]
    print(f"with ProvLight           : {t_light:.2f}s "
          f"(overhead {100 * (t_light / t0 - 1):.2f}%)")

    lake, _, _ = run("provlake")
    t_lake = lake["workflow_elapsed"]
    print(f"with ProvLake            : {t_lake:.2f}s "
          f"(overhead {100 * (t_lake / t0 - 1):.2f}%)")

    print(f"\nanomalous windows detected: {light['anomalous_windows']}")

    print("\nlineage of window 3's report (walked from captured provenance):")
    chain = lineage_of(backend, "sensors", "rep-3")
    print("  rep-3 <- " + " <- ".join(chain))

    print("\ntakeaway: on constrained networks the blocking HTTP baseline "
          "stalls the pipeline, while ProvLight's asynchronous MQTT-SN "
          "publish leaves it nearly untouched (paper Tables III vs VIII).")


if __name__ == "__main__":
    main()
