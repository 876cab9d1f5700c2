"""A run's telemetry: what happened, read from its snapshot alone.

Every assertion here reads ``json.loads(json.dumps(outcome.telemetry))``
— the plain-data snapshot of the run's registry (``env.metrics``) — and
nothing else of the run: no live object, no log kept beside it.
"""

import json

import pytest

from repro.harness.experiments import ExperimentSetup, run_capture_experiment
from repro.workloads import SyntheticWorkloadConfig

CONFIG = SyntheticWorkloadConfig(
    number_of_tasks=10, attributes_per_task=10, task_duration_s=0.5,
)

#: 5 durable QoS-1 devices behind a two-tier uplink; 40% of them crash
#: at t=2 s and come back 1 s later
CHURN = ExperimentSetup(
    n_devices=5, topology="edge:5:wan-fog,fog:2:wan-fog,cloud:1", qos=1,
    chaos="churn@2:0.4:1",
)


def snapshot(setup, seed=1):
    """The run's telemetry, through JSON."""
    return json.loads(json.dumps(run_capture_experiment(setup, CONFIG, seed).telemetry))


def counted(snap, component, name, field="count"):
    """One counter summed over every registration (every label set)."""
    return sum(c[field] for c in snap["counters"]
               if c["component"] == component and c["name"] == name)


def events(snap, kind):
    return [e for e in snap["events"] if e["kind"] == kind]


# -- timeline ----------------------------------------------------------------

def test_a_shard_kill_is_followed_by_one_failover_with_its_session_counts():
    snap = snapshot(ExperimentSetup(n_devices=4, broker_shards=2,
                                    chaos="kill-shard@2"))
    [kill] = events(snap, "kill-shard")
    [failover] = events(snap, "failover")
    assert kill["t"] == pytest.approx(2.0)
    assert failover["t"] >= kill["t"]
    assert failover["shard"] == kill["shard"]
    assert isinstance(failover["migrated"], int) and isinstance(failover["dropped"], int)
    # the busiest shard was killed: it held sessions to move or drop
    assert failover["migrated"] + failover["dropped"] >= 1


def test_every_crashed_device_comes_back_and_replays_its_journal():
    snap = snapshot(CHURN)
    crashes = events(snap, "crash-device")
    ups = events(snap, "device-up")
    assert len(crashes) == 2  # round(0.4 * 5)
    for crash in crashes:
        [up] = [e for e in ups if e["device"] == crash["device"]]
        assert up["t"] > crash["t"]
    recovered = [up for up in ups if up["journal_recovery"]]
    assert recovered, "no incarnation came back with records to replay"
    # each recovering incarnation replayed at least one journaled record
    assert counted(snap, "capture", "replayed") >= len(recovered)


# -- ledger ------------------------------------------------------------------

def test_a_durable_churn_run_balances_captured_against_ingested_and_stored():
    snap = snapshot(CHURN)
    # every client incarnation's captures, including the crashed ones
    captured = counted(snap, "capture", "records_captured")
    assert captured == 5 * (2 + 2 * CONFIG.number_of_tasks)
    assert counted(snap, "front", "ingested", "total") == captured
    assert counted(snap, "dfanalyzer", "records_ingested") == captured
    assert counted(snap, "front", "failures") == 0


def test_best_effort_publishers_reconnect_after_a_failover():
    """A failover drops the publisher sessions of the killed shard.  A
    best-effort client loses the one record it had in flight there, then
    reconnects with nothing to replay; every later record is ingested."""
    outcome = run_capture_experiment(
        ExperimentSetup(n_devices=4, broker_shards=2, chaos="kill-shard@2"),
        SyntheticWorkloadConfig(number_of_tasks=10, attributes_per_task=10), seed=1,
    )
    snap = json.loads(json.dumps(outcome.telemetry))
    [failover] = events(snap, "failover")
    reconnects = events(snap, "reconnect")
    assert failover["dropped"] == 4
    assert len({e["client"] for e in reconnects}) == len(reconnects) == failover["dropped"]
    assert all(e["t"] > failover["t"] for e in reconnects)
    captured = counted(snap, "capture", "records_captured")
    assert captured == 4 * (2 + 2 * 10)
    assert counted(snap, "front", "ingested", "total") == captured - failover["dropped"]
    assert counted(snap, "dfanalyzer", "records_ingested") == captured - failover["dropped"]


# -- a run is a value ----------------------------------------------------------

def test_a_second_run_holds_nothing_of_the_first():
    first = snapshot(CHURN)
    second = snapshot(ExperimentSetup(n_devices=1))
    assert events(first, "crash-device")
    assert second["events"] == []
    assert counted(second, "capture", "records_captured") == 2 + 2 * CONFIG.number_of_tasks
    assert counted(second, "dfanalyzer", "records_ingested") == 2 + 2 * CONFIG.number_of_tasks
    devices = {c["labels"].get("device") for c in second["counters"]
               if c["component"] == "radio"}
    assert devices == {"cloud-device", "edge-0"}
