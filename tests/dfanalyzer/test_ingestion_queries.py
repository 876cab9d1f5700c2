"""Tests for DfAnalyzer ingestion and the paper queries."""

import pytest

from repro.core import to_dfanalyzer
from repro.dfanalyzer import (
    DfAnalyzerService,
    IngestError,
    latest_epoch_metrics,
    lineage_of,
    task_durations,
    top_k_by_metric,
)
from repro.simkernel import Environment


def provlight_records(wf=1, n_tasks=3):
    records = [{"kind": "workflow_begin", "workflow_id": wf, "time": 0.0}]
    for i in range(n_tasks):
        records.append({
            "kind": "task_begin", "workflow_id": wf, "task_id": i,
            "transformation_id": "train", "dependencies": [i - 1] if i else [],
            "time": float(i), "status": "running",
            "data": [{"id": f"in{i}", "workflow_id": wf, "derivations": [],
                      "attributes": {"epoch": i, "lr": 0.1}}],
        })
        records.append({
            "kind": "task_end", "workflow_id": wf, "task_id": i,
            "transformation_id": "train", "dependencies": [i - 1] if i else [],
            "time": float(i) + 0.5, "status": "finished",
            "data": [{"id": f"out{i}", "workflow_id": wf,
                      "derivations": [f"out{i-1}"] if i else [],
                      "attributes": {"epoch": i, "lr": 0.1,
                                     "loss": 1.0 / (i + 1),
                                     "accuracy": 0.6 + 0.1 * i,
                                     "elapsed_time": 0.5}}],
        })
    records.append({"kind": "workflow_end", "workflow_id": wf, "time": n_tasks + 1.0})
    return records


def seeded_service(n_tasks=3):
    service = DfAnalyzerService(metrics=Environment().metrics)
    service.ingest(to_dfanalyzer(provlight_records(n_tasks=n_tasks)))
    return service


def test_ingest_translator_batch_counts():
    service = seeded_service()
    # 2 dataflow events + 6 task records
    assert service.records_ingested.count == 8


def test_task_upsert_running_to_finished():
    service = seeded_service()
    tasks = service.query("tasks").rows()
    assert len(tasks) == 3  # begin+end merged into one row each
    assert all(t["status"] == "FINISHED" for t in tasks)
    assert tasks[0]["time_begin"] == 0.0
    assert tasks[0]["time_end"] == 0.5


def test_end_before_begin_still_recorded():
    service = DfAnalyzerService(metrics=Environment().metrics)
    records = provlight_records(n_tasks=1)
    end_first = [records[2], records[1]]  # swap begin/end order
    service.ingest(to_dfanalyzer(end_first))
    tasks = service.query("tasks").rows()
    assert len(tasks) == 2  # end inserted its own row, then begin row
    statuses = {t["status"] for t in tasks}
    assert statuses == {"FINISHED", "running".upper() if False else "RUNNING"}


def test_dataset_attributes_become_columns():
    service = seeded_service()
    rows = service.query("datasets").where("dataset_tag", "==", "out1").rows()
    assert rows[0]["accuracy"] == pytest.approx(0.7)
    assert rows[0]["direction"] == "output"


def test_ingest_capture_library_format():
    service = DfAnalyzerService(metrics=Environment().metrics)
    message = {
        "dfa_version": "1.0.4",
        "messages": [
            {
                "object": "task", "dataflow_tag": "df_1",
                "transformation_tag": "tr_0", "id": 7, "status": "RUNNING",
                "dependency": {"tags": ["6"]},
                "performance": {"time": "2023-01-17T00:00:01.000Z"},
                "sets": [{"tag": "in7", "dependency": [],
                          "elements": [{"x": 1.0}]}],
            }
        ],
    }
    assert service.ingest(message) == 1
    rows = service.query("tasks").rows()
    assert rows[0]["task_id"] == 7
    assert rows[0]["dependencies"] == "6"


def test_ingest_provlake_format():
    service = DfAnalyzerService(metrics=Environment().metrics)
    body = {
        "@context": {"prov": "http://www.w3.org/ns/prov#"},
        "messages": [
            {"prov_obj": "workflow", "wf_execution": "wfexec_1",
             "act_type": "workflow_begin", "timestamp": "t0", "status": ""},
            {"prov_obj": "task", "wf_execution": "wfexec_1",
             "act_type": "task_begin", "timestamp": "t1", "status": "running",
             "data_transformation": "dt_0",
             "task": {"id": 7, "dependencies": ["6"], "workflow": "wfexec_1"},
             "used": {"in7": {"attributes": {"x": 1.0}, "derived_from": [],
                              "attributed_to": "wfexec_1"}}},
            {"prov_obj": "task", "wf_execution": "wfexec_1",
             "act_type": "task_end", "timestamp": "t2", "status": "finished",
             "data_transformation": "dt_0",
             "task": {"id": 7, "dependencies": ["6"], "workflow": "wfexec_1"},
             "generated": {"out7": {"attributes": {"y": 2.0},
                                    "derived_from": ["in7"],
                                    "attributed_to": "wfexec_1"}}},
        ],
    }
    assert service.ingest(body) == 3
    assert service.query("dataflows").rows() == [
        {"dataflow_tag": "1", "event": "begin", "time": "t0"}]
    tasks = service.query("tasks").rows()
    assert len(tasks) == 1
    assert tasks[0]["task_id"] == 7 and tasks[0]["dataflow_tag"] == "1"
    assert (tasks[0]["status"], tasks[0]["time_begin"], tasks[0]["time_end"]) == (
        "FINISHED", "t1", "t2")
    assert tasks[0]["dependencies"] == "6"
    datasets = {r["dataset_tag"]: r for r in service.query("datasets").rows()}
    assert datasets["in7"]["direction"] == "input" and datasets["in7"]["x"] == 1.0
    assert datasets["out7"]["direction"] == "output"
    assert datasets["out7"]["derivations"] == "in7"
    assert lineage_of(service, "1", "out7") == ["in7"]
    with pytest.raises(IngestError):
        service.ingest({"messages": [{"prov_obj": "task", "act_type": "task_pause",
                                      "wf_execution": "wfexec_1"}]})


def test_ingest_rejects_garbage():
    service = DfAnalyzerService(metrics=Environment().metrics)
    with pytest.raises(IngestError):
        service.ingest("not a record")
    with pytest.raises(IngestError):
        service.ingest([{"neither": 1}])
    with pytest.raises(IngestError):
        service.ingest({"messages": [{"object": "alien"}]})


def test_dataflow_summary():
    service = seeded_service()
    summary = service.dataflow_summary("1")
    assert summary["tasks"] == 3
    assert summary["by_status"] == {"FINISHED": 3}


# -- paper queries ---------------------------------------------------------


def test_top_k_by_metric():
    service = seeded_service(n_tasks=5)
    best = top_k_by_metric(service, "1", "accuracy", ["lr"], k=3)
    assert len(best) == 3
    assert best[0]["accuracy"] == pytest.approx(1.0)
    assert best[0]["lr"] == 0.1
    assert best[0]["accuracy"] >= best[1]["accuracy"] >= best[2]["accuracy"]


def test_latest_epoch_metrics():
    service = seeded_service(n_tasks=4)
    rows = latest_epoch_metrics(service, "1", ["lr"], metrics=("elapsed_time", "loss"))
    assert len(rows) == 1  # single lr combination
    assert rows[0]["epoch"] == 3
    assert rows[0]["loss"] == pytest.approx(0.25)
    assert rows[0]["elapsed_time"] == pytest.approx(0.5)


def test_task_durations():
    service = seeded_service()
    durations = task_durations(service, "1")
    assert len(durations) == 3
    assert all(d["duration"] == pytest.approx(0.5) for d in durations)


def test_lineage_walk():
    service = seeded_service(n_tasks=4)
    chain = lineage_of(service, "1", "out3")
    assert chain == ["out2", "out1", "out0"]


def test_lineage_of_unknown_dataset():
    service = seeded_service()
    assert lineage_of(service, "1", "ghost") == []
