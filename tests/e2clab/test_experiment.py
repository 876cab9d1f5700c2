"""End-to-end tests for the Experiment lifecycle and Provenance Manager."""

import pytest

from repro.e2clab import (
    Experiment,
    WorkflowManager,
)

LAYERS = """
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
  - name: Client, environment: iotlab, arch: a8, qtd: 2
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
    number_of_tasks: 6
    task_duration_s: 0.05
    attributes_per_task: 10
    chained_transformations: 3
"""


def test_full_experiment_with_provenance():
    exp = Experiment(LAYERS, NETWORK, WORKFLOW)
    results = exp.run()
    # both edge devices ran the workload
    entry = results.entries["edge.Client:synthetic"]
    assert len(entry) == 2
    assert all(r["tasks"] == 6 for r in entry)
    # provenance flowed to the backend: 2 devices x (2 wf + 12 task records)
    assert results.provenance_records == 2 * 14
    # device metrics were collected for the edge devices
    edge_metrics = [m for name, m in results.device_metrics.items()
                    if name.startswith("edge-client")]
    assert len(edge_metrics) == 2
    assert all(m.capture_cpu_utilization > 0 for m in edge_metrics)


def test_experiment_provenance_queries():
    exp = Experiment(LAYERS, NETWORK, WORKFLOW)
    exp.run()
    tasks = exp.provenance.query("tasks").rows()
    assert len(tasks) == 12  # 6 per device, begin+end merged
    assert all(t["status"] == "FINISHED" for t in tasks)
    summary = exp.provenance.dataflow_summary("1")
    assert summary["tasks"] == 12


def test_experiment_without_provenance_uses_null_capture():
    layers = LAYERS.replace("  provenance: ProvenanceManager\n", "")
    exp = Experiment(layers, NETWORK, WORKFLOW)
    results = exp.run()
    assert results.provenance_records == 0
    assert exp.provenance is None
    entry = results.entries["edge.Client:synthetic"]
    assert len(entry) == 2


def test_experiment_dependency_ordering():
    workflow = """
workflow:
- hosts: edge.Client
  workload: synthetic
  parameters:
    number_of_tasks: 3
    task_duration_s: 0.05
    chained_transformations: 3
- hosts: cloud.Server
  workload: sensors
  parameters:
    windows: 2
  depends_on: edge.Client:synthetic
"""
    exp = Experiment(LAYERS, NETWORK, workflow)
    results = exp.run()
    assert "edge.Client:synthetic" in results.entries
    assert "cloud.Server:sensors" in results.entries
    assert results.entries["cloud.Server:sensors"][0]["windows"] == 2


def test_experiment_unknown_dependency_fails():
    workflow = """
workflow:
- hosts: edge.Client
  workload: synthetic
  depends_on: ghost.entry
"""
    exp = Experiment(LAYERS, NETWORK, workflow)
    with pytest.raises(Exception):
        exp.run()


def test_experiment_group_workload_federated():
    workflow = """
workflow:
- hosts: edge.Client
  workload: federated
  parameters:
    rounds: 2
    local_epochs: 1
    epoch_duration_s: 0.05
"""
    exp = Experiment(LAYERS, NETWORK, workflow)
    results = exp.run()
    history = results.entries["edge.Client:federated"][0]
    assert len(history["rounds"]) == 2
    assert 0.0 <= history["final_accuracy"] <= 1.0
    # FL provenance captured per client workflow
    tags = {r["dataflow_tag"]
            for r in exp.provenance.query("tasks").rows()}
    assert tags == {"fl-client-0", "fl-client-1"}


def test_experiment_deploy_twice_rejected():
    exp = Experiment(LAYERS, NETWORK, WORKFLOW)
    exp.deploy()
    with pytest.raises(RuntimeError):
        exp.deploy()


def test_custom_workload_registration():
    manager = WorkflowManager()

    def trivial(env, capture_client, parameters, result, index):
        yield from capture_client.setup()
        result["ran"] = True
        yield env.timeout(parameters.get("sleep", 0.01))

    manager.register_function("trivial", trivial)
    workflow = """
workflow:
- hosts: edge.Client
  workload: trivial
  parameters:
    sleep: 0.02
"""
    exp = Experiment(LAYERS, NETWORK, workflow, workflow_manager=manager)
    results = exp.run()
    assert all(r["ran"] for r in results.entries["edge.Client:trivial"])


def test_unknown_workload_rejected():
    workflow = "workflow:\n- hosts: edge.Client\n  workload: quantum\n"
    exp = Experiment(LAYERS, NETWORK, workflow)
    with pytest.raises(Exception):
        exp.run()


def test_network_manager_reconfigure():
    exp = Experiment(LAYERS, NETWORK, WORKFLOW)
    exp.deploy()
    touched = exp.network_manager.reconfigure("edge", "cloud", bandwidth_bps=25e3)
    assert touched == 2
    assert exp.network.link("edge-client-0", "cloud-server").bandwidth_bps == 25e3
    with pytest.raises(KeyError):
        exp.network_manager.reconfigure("edge", "fog", loss=0.1)


def test_per_device_workloads_draw_different_data():
    """Device ``i`` of a per-device entry runs with the configured seed
    plus ``i``: two synthetic devices jitter their tasks differently and
    two cameras score different images."""
    workflow = WORKFLOW + """
- hosts: edge.Client
  workload: imaging
  parameters:
    n_images: 2
"""
    results = Experiment(LAYERS, NETWORK, workflow).run()
    first, second = results.entries["edge.Client:synthetic"]
    assert first["elapsed"] != second["elapsed"]
    first, second = results.entries["edge.Client:imaging"]
    assert first["scores"] != second["scores"]


def test_device_zero_keeps_the_configured_seed():
    manager = WorkflowManager()
    (label, gen, _), = manager.instantiate("imaging", None, [None], {"seed": 5})
    assert gen.gi_frame.f_locals["config"].seed == 5
