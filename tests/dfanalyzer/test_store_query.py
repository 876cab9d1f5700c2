"""Tests for the column store and query engine."""

import pytest

from repro.dfanalyzer import ColumnStore, Query, QueryError, StoreError, Table


def seeded_store():
    store = ColumnStore()
    tasks = store.create_table("tasks", ["task_id", "status", "duration"])
    for i in range(6):
        tasks.insert({"task_id": i, "status": "FINISHED" if i % 2 else "RUNNING",
                      "duration": float(i)})
    return store


# -- Table ---------------------------------------------------------------


def test_insert_and_row_roundtrip():
    t = Table("t", ["a", "b"])
    rid = t.insert({"a": 1, "b": 2})
    assert rid == 0
    assert t.row(0) == {"a": 1, "b": 2}
    assert len(t) == 1


def test_dynamic_schema_backfills_nulls():
    t = Table("t")
    t.insert({"a": 1})
    t.insert({"a": 2, "b": 20})
    assert t.row(0) == {"a": 1, "b": None}
    assert t.row(1) == {"a": 2, "b": 20}


def test_missing_columns_are_null():
    t = Table("t", ["a", "b"])
    t.insert({"a": 5})
    assert t.row(0)["b"] is None


def test_column_access_and_errors():
    t = Table("t", ["a"])
    t.insert({"a": 3})
    assert t.column("a") == [3]
    with pytest.raises(StoreError):
        t.column("zzz")
    with pytest.raises(IndexError):
        t.row(5)


def test_update_rows():
    t = Table("t", ["id", "status"])
    t.insert({"id": 1, "status": "RUNNING"})
    t.insert({"id": 2, "status": "RUNNING"})
    t.insert({"id": 3, "status": "RUNNING"})
    updated = t.update_rows([0, 2], {"status": "DONE", "note": "x"})
    assert updated == 2
    assert [t.row(i)["status"] for i in range(3)] == ["DONE", "RUNNING", "DONE"]
    assert t.column("note") == ["x", None, "x"]  # new column backfilled
    with pytest.raises(IndexError):
        t.update_rows([3], {"status": "DONE"})
    assert t.column("status") == ["DONE", "RUNNING", "DONE"]


def test_store_table_management():
    store = ColumnStore()
    store.create_table("x")
    assert "x" in store
    assert store.table_names == ["x"]
    with pytest.raises(ValueError):
        store.create_table("x")
    assert "y" not in store
    with pytest.raises(StoreError):
        store.table("y")


# -- Query ---------------------------------------------------------------


def test_where_filters():
    store = seeded_store()
    rows = Query(store, "tasks").where("status", "==", "FINISHED").rows()
    assert [r["task_id"] for r in rows] == [1, 3, 5]


def test_where_comparison_ops():
    store = seeded_store()
    q = Query(store, "tasks")
    assert Query(store, "tasks").where("duration", ">", 3.0).count() == 2
    assert Query(store, "tasks").where("duration", "<=", 1.0).count() == 2
    assert Query(store, "tasks").where("task_id", "in", [0, 5]).count() == 2


def test_where_unknown_operator():
    store = seeded_store()
    with pytest.raises(QueryError):
        Query(store, "tasks").where("a", "~=", 1)


def test_where_skips_nulls_and_incomparables():
    store = ColumnStore()
    t = store.create_table("t", ["v"])
    t.insert({"v": 1})
    t.insert({"v": None})
    t.insert({"v": "string"})
    rows = Query(store, "t").where("v", ">", 0).rows()
    assert len(rows) == 1


def test_select_projects():
    store = seeded_store()
    rows = Query(store, "tasks").select("task_id").limit(2).rows()
    assert rows == [{"task_id": 0}, {"task_id": 1}]


def test_order_by_and_limit():
    store = seeded_store()
    rows = Query(store, "tasks").order_by("duration", desc=True).limit(3).rows()
    assert [r["duration"] for r in rows] == [5.0, 4.0, 3.0]


def test_order_by_sorts_nulls_last():
    store = ColumnStore()
    t = store.create_table("t", ["v"])
    t.insert({"v": 2})
    t.insert({"v": None})
    t.insert({"v": 1})
    rows = Query(store, "t").order_by("v").rows()
    assert [r["v"] for r in rows] == [1, 2, None]


def test_limit_validation_and_empty_select():
    store = seeded_store()
    with pytest.raises(QueryError):
        Query(store, "tasks").limit(-1)
    with pytest.raises(QueryError):
        Query(store, "tasks").select()


def test_query_pipeline_is_reusable_lazily():
    store = seeded_store()
    q = Query(store, "tasks").where("status", "==", "RUNNING")
    n_before = q.count()
    store.table("tasks").insert({"task_id": 10, "status": "RUNNING", "duration": 0.0})
    assert q.count() == n_before + 1  # evaluated against live data
