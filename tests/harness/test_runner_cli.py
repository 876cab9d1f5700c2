"""The ``python -m repro.harness`` knob flags.

Every ``ExperimentSetup`` field with flag metadata gets a flag generated
from that metadata; these tests drive each flag through
``repro.harness.runner.main`` end to end, up to the table, which is
stubbed so each case stays fast and records the ``base`` setup and the
repetition count it receives.
"""

from dataclasses import fields

import pytest

from repro.harness import runner
from repro.harness.experiments import ExperimentSetup
from repro.harness.tables import TableResult

BAD_VALUES = [
    ("--broker-shards", "0"),
    ("--broker-shards", "two"),
    ("--broker-placement", "rr"),
    ("--pool-min", "0"),
    ("--pool-min", "x"),
    ("--pool-max", "-1"),
    ("--chaos", "nonsense"),
    ("--topology", "edge:zero"),
    ("--reps", "0"),
    ("--reps", "-1"),
    ("--reps", "many"),
]

GOOD_VALUES = [
    ("--broker-shards", "2", "broker_shards", 2),
    ("--broker-placement", "p2c", "broker_placement", "p2c"),
    ("--pool-min", "2", "pool_min", 2),
    ("--pool-max", "4", "pool_max", 4),
    # a schedule the default setup can run (kill-shard needs two shards)
    ("--chaos", "crash-worker@2.0", "chaos", "crash-worker@2.0"),
    ("--topology", "wan-fog", "topology", "wan-fog"),
]


def knobs():
    return [knob for knob in fields(ExperimentSetup) if "parse" in knob.metadata]


@pytest.fixture
def table_calls(monkeypatch):
    """Stub Table IX: record the ``(repetitions, base)`` it is run with."""
    calls = []

    def fake_table9(repetitions=None, base=ExperimentSetup()):
        calls.append((repetitions, base))
        return TableResult("table9", "Table IX", "", [])

    monkeypatch.setitem(runner.ALL_TABLES, "table9", fake_table9)
    return calls


@pytest.mark.parametrize("flag,value", BAD_VALUES)
def test_bad_flag_value_exits_2_naming_the_flag(table_calls, capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["table9", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err
    assert table_calls == []  # rejected before any run


def test_pool_min_above_pool_max_is_rejected(table_calls, capsys):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["table9", "--pool-min", "3", "--pool-max", "2"])
    assert excinfo.value.code == 2
    assert "pool_min must be <= pool_max" in capsys.readouterr().err
    assert table_calls == []


@pytest.mark.parametrize("flag,value,field,expected", GOOD_VALUES)
def test_good_flag_reaches_the_base_setup_of_the_tables(
    table_calls, flag, value, field, expected
):
    assert runner.main(["table9", flag, value]) == 0
    [(_, base)] = table_calls
    assert getattr(base, field) == expected
    assert base == ExperimentSetup(**{field: expected})  # nothing else moved


def test_reps_default_is_left_to_the_table(table_calls):
    assert runner.main(["table9"]) == 0
    assert runner.main(["table9", "--reps", "2"]) == 0
    assert table_calls == [(None, ExperimentSetup()), (2, ExperimentSetup())]


def test_every_knob_has_a_generated_flag(capsys):
    assert {k.name for k in knobs()} == {
        "broker_shards", "broker_placement", "pool_min", "pool_max",
        "chaos", "topology",
    }
    with pytest.raises(SystemExit):
        runner.main(["--help"])
    usage = capsys.readouterr().out
    for knob in knobs():
        assert knob.metadata["help"]
        assert "--" + knob.name.replace("_", "-") in usage


def test_placement_choices_come_from_the_policy_list(capsys):
    from repro.mqttsn import PLACEMENT_POLICIES

    with pytest.raises(SystemExit):
        runner.main(["--help"])
    usage = capsys.readouterr().out
    assert "{" + ",".join(PLACEMENT_POLICIES) + "}" in usage
