"""The ``python -m repro.harness`` knob flags.

Every ``ExperimentSetup`` field with environment metadata gets a flag
generated from that metadata; these tests drive each flag through
``repro.harness.runner.main`` end to end (up to ``run_targets``, which
is stubbed so each case stays fast).
"""

import os

import pytest

from repro.harness import runner
from repro.harness.experiments import ExperimentSetup, env_knobs

BAD_VALUES = [
    ("--broker-shards", "0"),
    ("--broker-shards", "two"),
    ("--broker-placement", "rr"),
    ("--pool-min", "0"),
    ("--pool-min", "x"),
    ("--pool-max", "-1"),
    ("--chaos", "nonsense"),
    ("--topology", "edge:zero"),
]

GOOD_VALUES = [
    ("--broker-shards", "2", "broker_shards", 2),
    ("--broker-placement", "p2c", "broker_placement", "p2c"),
    ("--pool-min", "2", "pool_min", 2),
    ("--pool-max", "4", "pool_max", 4),
    ("--chaos", "kill-shard@2.0", "chaos", "kill-shard@2.0"),
    ("--topology", "wan-fog", "topology", "wan-fog"),
]


@pytest.fixture
def setups_seen(monkeypatch):
    """Stub ``run_targets``: record the ExperimentSetup() a table would
    build while the run is in progress."""
    seen = []

    def fake_run_targets(targets, repetitions=None):
        seen.append(ExperimentSetup())
        return {}

    monkeypatch.setattr(runner, "run_targets", fake_run_targets)
    for knob in env_knobs():
        monkeypatch.delenv(knob.metadata["env"], raising=False)
    return seen


@pytest.mark.parametrize("flag,value", BAD_VALUES)
def test_bad_flag_value_exits_2_naming_the_flag(setups_seen, capsys, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["table9", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err
    assert setups_seen == []  # rejected before any run


def test_pool_min_above_pool_max_is_rejected(setups_seen, capsys):
    with pytest.raises(SystemExit) as excinfo:
        runner.main(["table9", "--pool-min", "3", "--pool-max", "2"])
    assert excinfo.value.code == 2
    assert "pool_min must be <= pool_max" in capsys.readouterr().err
    assert setups_seen == []


@pytest.mark.parametrize("flag,value,field,expected", GOOD_VALUES)
def test_good_flag_reaches_experiment_setup_and_env_is_restored(
    setups_seen, flag, value, field, expected
):
    assert runner.main(["table9", flag, value]) == 0
    assert getattr(setups_seen[0], field) == expected
    var = next(k.metadata["env"] for k in env_knobs() if k.name == field)
    assert var not in os.environ


def test_flag_restores_a_preexisting_env_value(setups_seen, monkeypatch):
    monkeypatch.setenv("REPRO_BROKER_SHARDS", "3")
    assert runner.main(["table9", "--broker-shards", "2"]) == 0
    assert setups_seen[0].broker_shards == 2
    assert os.environ["REPRO_BROKER_SHARDS"] == "3"


def test_every_env_knob_has_a_generated_flag(capsys):
    knobs = env_knobs()
    assert {k.name for k in knobs} == {
        "broker_shards", "broker_placement", "pool_min", "pool_max",
        "chaos", "topology",
    }
    with pytest.raises(SystemExit):
        runner.main(["--help"])
    usage = capsys.readouterr().out
    for knob in knobs:
        assert knob.metadata["env"] == "REPRO_" + knob.name.upper()
        assert knob.metadata["help"]
        assert "--" + knob.name.replace("_", "-") in usage


def test_placement_choices_come_from_the_policy_list(capsys):
    from repro.mqttsn import PLACEMENT_POLICIES

    with pytest.raises(SystemExit):
        runner.main(["--help"])
    usage = capsys.readouterr().out
    assert "{" + ",".join(PLACEMENT_POLICIES) + "}" in usage
