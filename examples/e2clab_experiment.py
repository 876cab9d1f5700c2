"""A configuration-driven Edge-to-Cloud experiment (paper Listing 2).

The whole deployment is described in three mini-YAML documents — layers &
services (with the ProvenanceManager enabled), network constraints, and
the workflow — and executed by the E2Clab-style experiment manager:
provisioning on simulated Grid'5000 + FIT IoT LAB testbeds, netem-style
link shaping, ProvLight capture on every edge device, DfAnalyzer storage
and queries on the cloud.  Next to the synthetic workload, two camera
devices run the image pre-processing pipeline, the paper's third
motivating application class.

Run with:  python examples/e2clab_experiment.py
"""

from repro.e2clab import Experiment

LAYERS_SERVICES = """
environment:
  g5k: cluster: gros
  iotlab: cluster: grenoble
  provenance: ProvenanceManager
layers:
- name: cloud
  services:
  - name: Server, environment: g5k, qtd: 1
- name: edge
  services:
  - name: Client, environment: iotlab, arch: a8, qtd: 8
  - name: Camera, environment: iotlab, arch: a8, qtd: 2
"""

NETWORK = """
networks:
- src: edge, dst: cloud, rate: "1Gbit", delay: "23ms"
"""

WORKFLOW = """
workflow:
- hosts: edge.Client
  workload: synthetic
  parameters:
    number_of_tasks: 20
    chained_transformations: 5
    attributes_per_task: 100
    task_duration_s: 0.5
- hosts: edge.Camera
  workload: imaging
  parameters:
    n_images: 4
"""


def main() -> None:
    experiment = Experiment(LAYERS_SERVICES, NETWORK, WORKFLOW)
    results = experiment.run()

    print("=== E2Clab experiment: 8 edge clients, 2 cameras + provenance manager ===")
    runs = results.entries["edge.Client:synthetic"]
    print(f"devices that ran the workload : {len(runs)}")
    print(f"mean workflow elapsed         : "
          f"{sum(r['elapsed'] for r in runs) / len(runs):.2f}s")
    print(f"provenance records ingested   : {results.provenance_records}")
    for run in results.entries["edge.Camera:imaging"]:
        print(f"camera blob scores            : "
              + " ".join(f"{score:.2f}" for score in run["scores"]))

    print("\nper-device capture metrics:")
    for name in sorted(results.device_metrics):
        if not name.startswith("edge-"):
            continue
        m = results.device_metrics[name]
        power = f"{m.average_power_w:.3f}W" if m.average_power_w else "n/a"
        print(f"  {name}: cpu={m.capture_cpu_utilization * 100:.2f}% "
              f"mem={m.capture_memory_fraction * 100:.2f}% "
              f"tx={m.tx_bytes / 1024:.1f}KB power={power}")

    print("\nprovenance queries through the Provenance Manager:")
    summary = experiment.provenance.dataflow_summary("1")
    print(f"  dataflow 1: {summary['tasks']} tasks, by status {summary['by_status']}")
    finished = (
        experiment.provenance.query("tasks")
        .where("status", "==", "FINISHED")
        .count()
    )
    print(f"  finished tasks across all devices: {finished}")


if __name__ == "__main__":
    main()
