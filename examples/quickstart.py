"""Quickstart: capture workflow provenance with ProvLight.

This is the paper's Listing 1 in runnable form: an edge device runs a
small instrumented workflow; captured records travel over MQTT-SN/UDP to
the broker on a cloud host, where a translator feeds the DfAnalyzer-style
backend.  At the end we query the backend for the stored tasks, datasets
and lineage.

Run with:  python examples/quickstart.py
"""

from repro.capture import CaptureConfig, create_client
from repro.core import (
    CallableBackend,
    Data,
    ProvLightServer,
    Task,
    Workflow,
)
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.dfanalyzer import DfAnalyzerService
from repro.net import Network
from repro.simkernel import Environment


def main() -> None:
    # --- 1. a tiny Edge-to-Cloud world ------------------------------------
    env = Environment()
    net = Network(env, seed=1)
    edge = Device(env, A8M3, name="edge-device")
    cloud = Device(env, XEON_GOLD_5220, name="cloud-server")
    net.add_host("edge", device=edge)
    net.add_host("cloud", device=cloud)
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.023)

    # --- 2. the ProvLight server: broker + translator + backend -----------
    # config=ServerConfig(broker_shards=N) partitions the broker plane
    # behind the same single endpoint (consistent hashing on client id)
    # for multi-core fan-in; the default of 1 is the paper's one-broker
    # deployment
    backend = DfAnalyzerService(metrics=env.metrics)
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(backend.ingest))
    # the unified capture API: one declarative config selects transport x
    # grouping x QoS (swap transport="coap" or "http" and nothing else
    # changes — see docs/capture-api.md)
    client = create_client(edge, server.endpoint, "provlight/edge/data",
                           CaptureConfig(transport="mqttsn"))

    # --- 3. the instrumented workflow (paper Listing 1) --------------------
    def workload(env):
        yield from server.pool.attach("provlight/#")
        yield from client.setup()

        attributes = 10
        chained_transformations = 3
        number_of_tasks = 6

        workflow = Workflow(1, client)
        yield from workflow.begin()
        data_id = 0
        previous_task = []
        for transf_id in range(chained_transformations):
            for _ in range(number_of_tasks // chained_transformations):
                data_id += 1
                task = Task(f"{transf_id}-{data_id}", workflow, transf_id,
                            dependencies=previous_task)
                data_in = Data(f"in{data_id}", workflow.id,
                               {"in": [1] * attributes})
                yield from task.begin([data_in])
                # #### YOUR TASK RUNS HERE ####
                yield env.timeout(0.5)
                data_out = Data(f"out{data_id}", workflow.id,
                                {"out": [2] * attributes},
                                derivations=[f"in{data_id}"])
                yield from task.end([data_out])
                previous_task = [task.id]
        yield from workflow.end(drain=True)

    env.process(workload(env))
    env.run()

    # --- 4. inspect what arrived ------------------------------------------------
    print("=== quickstart: ProvLight capture pipeline ===")
    print(f"simulated time          : {env.now:.3f}s")
    print(f"messages published      : {client.messages_sent.count}")
    print(f"payload bytes (total)   : {client.payload_bytes.total:.0f}")
    print(f"records in the backend  : {backend.records_ingested.count}")
    print(f"capture CPU utilization : {edge.cpu.utilization('capture') * 100:.2f}%")
    if edge.energy:
        print(f"average device power    : {edge.energy.average_power_w():.3f} W")

    print("\ntasks stored in DfAnalyzer:")
    for row in backend.query("tasks").order_by("time_begin").rows():
        print(
            f"  task {row['task_id']}: {row['status']:9s} "
            f"begin={row['time_begin']:.2f}s end={row['time_end']:.2f}s "
            f"deps=[{row['dependencies']}]"
        )

    # the captured dataset rows and their lineage
    datasets = backend.query("datasets").rows()
    print(f"\ndatasets captured: {len(datasets)} "
          f"(inputs: {sum(1 for d in datasets if d['direction'] == 'input')}, "
          f"outputs: {sum(1 for d in datasets if d['direction'] == 'output')})")
    lineage = backend.query("datasets").where("dataset_tag", "==", "out6").rows()
    print(f"out6 derived from: {lineage[0]['derivations']}")


if __name__ == "__main__":
    main()
