"""The column store's cells: numeric lists are kept as typed arrays, and
every read hands back a fresh list with the values and types stored."""

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfanalyzer import Table
from repro.dfanalyzer.store import _typed

scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
cells = st.one_of(
    scalars,
    st.lists(st.integers(min_value=-300, max_value=300), max_size=8),
    st.lists(st.integers(min_value=-2**63, max_value=2**64 - 1), max_size=8),
    st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=8),
    st.lists(st.booleans(), max_size=8),
    st.lists(st.floats(), max_size=8),
    st.lists(st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]), max_size=8),
    st.lists(scalars, max_size=8),
    st.lists(st.lists(st.one_of(st.integers(), st.floats()), max_size=3), max_size=4),
)
names = st.sampled_from(["a", "b", "c"])


def same(got, want):
    """Equal with the same types all the way down; NaN equals NaN and
    -0.0 differs from 0.0."""
    if type(got) is not type(want):
        return False
    if type(want) is list:
        return len(got) == len(want) and all(map(same, got, want))
    if type(want) is float:
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    return got == want


def copied(value):
    return [copied(v) for v in value] if type(value) is list else value


@given(st.lists(st.dictionaries(names, cells, max_size=3), min_size=1, max_size=5),
       st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), cells, max_size=2),
       st.data())
@settings(max_examples=300, deadline=None)
def test_reads_return_the_lists_that_were_written(rows, changes, data):
    table = Table("t", ["a"])
    model = []
    for row in rows:
        table.insert(row)
        model.append({name: copied(value) for name, value in row.items()})
    picked = data.draw(st.lists(st.integers(0, len(rows) - 1), unique=True))
    table.update_rows(picked, changes)
    for i in picked:
        model[i].update({name: copied(value) for name, value in changes.items()})

    columns = table.column_names
    for i, want in enumerate(model):
        got = table.row(i)
        assert list(got) == columns
        assert all(same(got[name], want.get(name)) for name in columns), (got, want)
    assert all(same(got[name], want.get(name))
               for got, want in zip(table.rows(), model) for name in columns)
    for name in columns:
        got = table.column(name)
        assert type(got) is list
        assert same(got, [want.get(name) for want in model])


def test_mutating_a_read_leaves_the_store_unchanged():
    table = Table("t")
    table.insert({"ints": [1, 2, 3], "mixed": [1, "x", [2]], "meta": {"k": [1]}})
    for row in table.rows():
        row["ints"].append(4)
        row["mixed"][2].append(3)
        row["meta"]["k"].append(2)
    table.column("ints")[0].append(5)
    table.column("mixed")[0].append("y")
    table.column("ints").append([9])
    assert table.row(0) == {"ints": [1, 2, 3], "mixed": [1, "x", [2]], "meta": {"k": [1]}}
    assert table.column("ints") == [[1, 2, 3]]


@pytest.mark.parametrize("values, itemsize", [
    ([0, 255], 1),
    ([-1, 127], 1),
    ([-128, 0], 1),
    ([0, 256], 2),
    ([-129], 2),
    ([0, 65535], 2),
    ([-1, 65535], 4),
    ([2**32 - 1], 4),
    ([-2**31], 4),
    ([2**32], 8),
    ([-2**63, 2**63 - 1], 8),
    ([2**64 - 1], 8),
])
def test_an_int_list_gets_the_narrowest_typecode_that_holds_it(values, itemsize):
    cell = _typed(values)
    assert type(cell) is array and cell.itemsize == itemsize
    assert cell.tolist() == values


def test_a_float_list_is_stored_as_doubles():
    cell = _typed([0.5, -0.0, math.inf])
    assert type(cell) is array and cell.typecode == "d"


@pytest.mark.parametrize("values", [
    [],
    [True, False],
    [1, True],
    [1, 2.0],
    [2**64],
    [-2**63 - 1, 0],
    [[1], [2]],
    ["1"],
])
def test_other_lists_stay_lists(values):
    assert _typed(values) is values
