"""The keyed ``tasks`` upsert: index equivalence, scan-free ingest, key checks."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import to_dfanalyzer
from repro.dfanalyzer import DfAnalyzerHttpService, DfAnalyzerService, IngestError, Table
from repro.http import HttpSession
from repro.net import Network
from repro.simkernel import Environment

from .test_ingestion_queries import provlight_records

TASK_COLUMNS = ["dataflow_tag", "transformation_tag", "task_id", "status",
                "time_begin", "time_end", "dependencies"]


def scan_upsert(records):
    """Reference: the full-table-scan upsert the index replaced.

    A FINISHED record rewrites every row whose key compares ``==`` to its
    own and inserts a row only when none does.
    """
    rows = []
    for record in records:
        df, task = record["dataflow_tag"], record["task_id"]
        status = record.get("status", "RUNNING")
        if status == "FINISHED":
            hits = [r for r in rows if r["dataflow_tag"] == df and r["task_id"] == task]
            for row in hits:
                row["status"], row["time_end"] = "FINISHED", record.get("time")
            if hits:
                continue
        row = dict.fromkeys(TASK_COLUMNS)
        row.update(
            dataflow_tag=df,
            transformation_tag=record.get("transformation_tag"),
            task_id=task,
            status=status,
            dependencies=",".join(str(d) for d in record.get("dependencies", ())),
        )
        row["time_end" if status == "FINISHED" else "time_begin"] = record.get("time")
        rows.append(row)
    return rows


def typed(values):
    """Values with their types, so ``1`` and ``1.0`` do not compare equal."""
    return [(type(v).__name__, v) for v in values]


task_record = st.tuples(
    st.sampled_from(["1", "2"]),                 # dataflow tag
    st.sampled_from([1, 1.0, "1", 2, "2"]),      # task id, both wire types
    st.sampled_from(["RUNNING", "FINISHED"]),
    st.integers(min_value=0, max_value=2),       # device
)


@given(st.lists(task_record, max_size=40))
@settings(max_examples=200, deadline=None)
def test_index_upsert_matches_the_full_scan(draws):
    # keys collide across devices of one tag, ends can precede begins and
    # repeat, and ids mix 1/1.0 (equal) with "1"/1 (distinct)
    records = [
        {"type": "task", "dataflow_tag": df, "transformation_tag": f"tr_{device}",
         "task_id": task_id, "status": status, "dependencies": [device],
         "time": float(i), "datasets": []}
        for i, (df, task_id, status, device) in enumerate(draws)
    ]
    service = DfAnalyzerService(metrics=Environment().metrics)
    for record in records:
        service.ingest(record)
    tasks = service.store.table("tasks")
    expected = scan_upsert(records)
    assert tasks.column_names == TASK_COLUMNS
    assert len(tasks) == len(expected)
    for name in TASK_COLUMNS:
        assert typed(tasks.column(name)) == typed(r[name] for r in expected), name


@pytest.mark.parametrize("n_tasks", [1, 10, 100, 400])
def test_ingest_visits_no_rows(monkeypatch, n_tasks):
    visited = []
    row = Table.row

    def counting_row(self, index):
        visited.append(index)
        return row(self, index)

    monkeypatch.setattr(Table, "row", counting_row)
    service = DfAnalyzerService(metrics=Environment().metrics)
    for _device in range(3):  # every device shares workflow 1's task keys
        service.ingest(to_dfanalyzer(provlight_records(n_tasks=n_tasks)))
    assert visited == []
    tasks = service.store.table("tasks")
    assert len(tasks) == 3 * n_tasks
    assert set(tasks.column("status")) == {"FINISHED"}
    tasks.row(0)
    assert visited == [0]  # the counter is live


@pytest.mark.parametrize("status", ["RUNNING", "FINISHED"])
def test_unhashable_task_id_is_an_ingest_error(status):
    service = DfAnalyzerService(metrics=Environment().metrics)
    with pytest.raises(IngestError, match="not hashable"):
        service.ingest({"type": "task", "dataflow_tag": "1", "task_id": [1],
                        "status": status})
    assert len(service.store.table("tasks")) == 0


def test_http_service_answers_unhashable_task_id_with_400():
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("client")
    net.add_host("server")
    net.connect("client", "server", bandwidth_bps=1e9, latency_s=0.001)
    http = DfAnalyzerHttpService(net.hosts["server"], 80, DfAnalyzerService(metrics=env.metrics))
    session = HttpSession(net.hosts["client"])
    statuses = []

    def client(env):
        for task_id in ([1], 1):
            body = json.dumps({"type": "task", "dataflow_tag": "1",
                               "task_id": task_id, "status": "RUNNING"})
            response = yield from session.post(http.endpoint, "/pde", body.encode())
            statuses.append(response.status)

    env.process(client(env))
    env.run()
    assert statuses == [400, 201]
    assert http.service.store.table("tasks").column("task_id") == [1]
