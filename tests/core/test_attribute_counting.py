"""Shared unit test for the Table I attribute-count semantics.

One implementation (``repro.core.model``) now serves every capture
client and baseline: container values (list/tuple/dict) count
element-wise, scalars count one, and the record-shaped helper counts
across a record's data items.  These tests pin the single shared
implementation and the baselines' import path.
"""

from repro.core import Data
from repro.core.model import (
    count_attribute_values,
    count_attributes,
    count_attributes_from_record,
)


def test_count_attribute_values_scalars_and_containers():
    assert count_attribute_values({}) == 0
    assert count_attribute_values({"a": 1}) == 1
    assert count_attribute_values({"a": None, "b": "x", "c": 2.5}) == 3
    assert count_attribute_values({"lst": [1, 2, 3]}) == 3
    assert count_attribute_values({"tup": (1, 2)}) == 2
    assert count_attribute_values({"map": {"x": 1, "y": 2}}) == 2
    # mixed: 4 list elements + 1 scalar + 2 dict entries + 0-length list
    assert count_attribute_values(
        {"in": [1] * 4, "flag": True, "meta": {"a": 1, "b": 2}, "empty": []}
    ) == 7


def test_count_attributes_accepts_data_objects():
    items = [
        Data("in1", 1, {"in": [1] * 10}),
        Data("in2", 1, {"scalar": 3, "pair": (1, 2)}),
        Data("in3", 1, {}),
    ]
    assert count_attributes(items) == 13


def test_count_attributes_accepts_record_dicts():
    items = [
        Data("in1", 1, {"in": [1] * 10}),
        Data("in2", 1, {"scalar": 3, "pair": (1, 2)}),
    ]
    as_records = [item.to_record() for item in items]
    assert count_attributes(as_records) == count_attributes(items) == 13


def test_count_attributes_from_record_matches_item_count():
    record = {
        "kind": "task_end",
        "workflow_id": 1,
        "data": [
            {"id": "out1", "attributes": {"out": [2] * 5}},
            {"id": "out2", "attributes": {"v": 1.5, "tags": ["a", "b"]}},
            {"id": "out3", "attributes": None},
            {"id": "out4"},  # no attributes key at all
        ],
    }
    assert count_attributes_from_record(record) == 8
    assert count_attributes_from_record({"kind": "workflow_begin"}) == 0


def test_single_implementation_everywhere():
    """The baselines' import path must resolve to the model helper."""
    from repro.baselines import common as baselines_common

    assert baselines_common.count_attributes_from_record is count_attributes_from_record
