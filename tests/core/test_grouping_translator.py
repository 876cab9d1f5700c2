"""Tests for the group buffer and the provenance data translator."""

import pytest

from repro.core import (
    GroupBuffer,
    TranslationError,
    Translator,
    encode_payload,
    records_from_payload,
    to_dfanalyzer,
    to_prov_json,
)


def rec(i, kind="task_end"):
    return {
        "kind": kind, "workflow_id": 1, "task_id": i, "transformation_id": 0,
        "dependencies": [], "time": float(i), "status": "finished",
        "data": [{"id": f"d{i}", "workflow_id": 1, "derivations": [],
                  "attributes": {"v": i}}],
    }


# -- GroupBuffer ---------------------------------------------------------


def test_disabled_buffer_passes_through():
    buf = GroupBuffer(0)
    assert not buf.enabled
    assert buf.add(rec(1)) == [rec(1)]
    assert buf.flush() is None


def test_buffer_releases_full_groups():
    buf = GroupBuffer(3)
    assert buf.add(rec(1)) is None
    assert buf.add(rec(2)) is None
    group = buf.add(rec(3))
    assert [r["task_id"] for r in group] == [1, 2, 3]
    assert len(buf) == 0
    assert buf.groups_flushed == 1


def test_buffer_flush_partial():
    buf = GroupBuffer(10)
    buf.add(rec(1))
    buf.add(rec(2))
    group = buf.flush()
    assert len(group) == 2
    assert buf.flush() is None


def test_buffer_negative_size_rejected():
    with pytest.raises(ValueError):
        GroupBuffer(-1)


def test_buffer_counts_records():
    buf = GroupBuffer(2)
    for i in range(6):
        buf.add(rec(i))
    assert buf.records_buffered == 6
    assert buf.groups_flushed == 3


# -- payload decoding ---------------------------------------------------------


def test_single_record_payload():
    records = records_from_payload(encode_payload(rec(1)))
    assert len(records) == 1 and records[0]["task_id"] == 1


def test_grouped_payload():
    group = [rec(i) for i in range(5)]
    records = records_from_payload(encode_payload(group))
    assert [r["task_id"] for r in records] == list(range(5))


def test_malformed_payload_structure_rejected():
    with pytest.raises(TranslationError):
        records_from_payload(encode_payload("just a string"))
    with pytest.raises(TranslationError):
        records_from_payload(encode_payload([1, 2, 3]))


# -- target formats ---------------------------------------------------------


def test_to_dfanalyzer_task_shape():
    out = to_dfanalyzer([rec(1, "task_begin"), rec(2, "task_end")])
    assert out[0]["type"] == "task"
    assert out[0]["status"] == "RUNNING"
    assert out[0]["datasets"][0]["direction"] == "input"
    assert out[1]["status"] == "FINISHED"
    assert out[1]["datasets"][0]["direction"] == "output"
    assert out[1]["dataflow_tag"] == "1"


def test_to_dfanalyzer_workflow_events():
    out = to_dfanalyzer([{"kind": "workflow_begin", "workflow_id": 9, "time": 0.0}])
    assert out == [{"type": "dataflow", "dataflow_tag": "9", "event": "begin", "time": 0.0}]


def test_translated_records_share_one_object_per_tag():
    """Tags are interned: the store keeps one ``"1"`` however many
    records of dataflow 1 it holds."""
    t = Translator()
    (_r, (first,)), (_s, (second,)) = (
        t.translate_payload(encode_payload(rec(i))) for i in (1, 2))
    assert first["dataflow_tag"] == "1"
    assert first["dataflow_tag"] is second["dataflow_tag"]
    assert first["transformation_tag"] is second["transformation_tag"]
    begin, end = to_dfanalyzer([
        {"kind": "workflow_begin", "workflow_id": 1, "time": 0.0},
        {"kind": "workflow_end", "workflow_id": 1, "time": 1.0}])
    assert begin["dataflow_tag"] is end["dataflow_tag"] is first["dataflow_tag"]


def test_to_dfanalyzer_rejects_unknown_kind():
    with pytest.raises(TranslationError):
        to_dfanalyzer([{"kind": "nope", "workflow_id": 1}])


def test_to_prov_json_via_mapping():
    pj = to_prov_json([rec(1, "task_begin")])
    assert "task:1" in pj["activity"]
    assert "data:d1" in pj["entity"]


def test_translator_decodes_and_translates_to_dfanalyzer():
    t = Translator()
    records, translated = t.translate_payload(encode_payload(rec(3)))
    assert records[0]["task_id"] == 3
    assert translated == to_dfanalyzer(records)
    assert translated[0]["type"] == "task"
    with pytest.raises(TranslationError):
        t.translate_payload(encode_payload([rec(1), 2]))
