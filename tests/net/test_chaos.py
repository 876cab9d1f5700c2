"""ServerFaultInjector + ChaosProfile: the server-plane chaos harness."""

import re

import pytest

from repro.core import CallableBackend, ProvLightServer, ServerConfig
from repro.device import XEON_GOLD_5220, Device
from repro.net import ChaosEvent, ChaosProfile, Network, ServerFaultInjector
from repro.simkernel import Environment


def make_server(shards=4, workers=4, seed=3):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    sink = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(sink.extend),
        config=ServerConfig(workers=workers, broker_shards=shards),
    )
    return env, net, server, sink


# ------------------------------------------------------------- the injector

def test_kill_shard_defaults_to_busiest_and_logs():
    env, net, server, _ = make_server()
    inj = ServerFaultInjector(server)
    killed = inj.kill_shard()
    assert killed in range(4)
    assert not server.broker.shards[killed].alive
    assert env.metrics.events() == [{"t": 0.0, "kind": "kill-shard", "shard": killed}]
    env.run()
    assert len(env.metrics.events("failover")) == 1


def test_kill_shard_at_fires_on_the_sim_clock():
    env, net, server, _ = make_server()
    inj = ServerFaultInjector(server)
    inj.kill_shard_at(1.5, index=2)
    env.run(until=1.0)
    assert server.broker.shards[2].alive
    env.run(until=5.0)
    assert not server.broker.shards[2].alive
    assert env.metrics.events("kill-shard") == [
        {"t": pytest.approx(1.5), "kind": "kill-shard", "shard": 2}]
    with pytest.raises(ValueError):
        inj.kill_shard_at(-1.0)


def test_crash_worker_targets_deepest_inbox():
    env, net, server, _ = make_server()
    server.pool.workers[2]._inbox.put_nowait(("t", b"x"))
    inj = ServerFaultInjector(server)
    assert inj.crash_worker() == 2
    env.run(until=5.0)
    assert [(e["kind"], e["worker"]) for e in env.metrics.events()] == [
        ("crash-worker", 3), ("restart-worker", 3)]  # worker index 3 at position 2


def test_backend_faults_require_network_wiring():
    env, net, server, _ = make_server()
    inj = ServerFaultInjector(server)  # no backend link configured
    with pytest.raises(ValueError):
        inj.backend_outage(0.5, 1.0)
    env.run(until=2.0)
    assert env.metrics.events() == []


# -------------------------------------------------------------- the grammar

def test_parse_full_grammar():
    profile = ChaosProfile.parse(
        "kill-shard@2.0, kill-shard:1@3, crash-worker@0.5,"
        "crash-worker:0@1, backend-outage@1:0.5, flap-backend@1:0.25:3"
    )
    assert profile.events == (
        ChaosEvent("kill-shard", None, (2.0,)),
        ChaosEvent("kill-shard", 1, (3.0,)),
        ChaosEvent("crash-worker", None, (0.5,)),
        ChaosEvent("crash-worker", 0, (1.0,)),
        ChaosEvent("backend-outage", None, (1.0, 0.5)),
        ChaosEvent("flap-backend", None, (1.0, 0.25, 3.0)),
    )
    assert profile.requires_backend_link()
    assert not ChaosProfile.parse("kill-shard@1").requires_backend_link()


@pytest.mark.parametrize("bad", [
    "",                          # empty spec
    "kill-shard",                # missing @args
    "explode@1.0",               # unknown kind
    "backend-outage:2@1:0.5",    # index on a non-indexable kind
    "kill-shard:x@1",            # non-integer index
    "kill-shard@one",            # non-numeric argument
    "kill-shard@1:2",            # wrong arity
    "flap-backend@1:0.5",        # wrong arity
])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        ChaosProfile.parse(bad)


def test_profile_apply_schedules_events():
    env, net, server, _ = make_server()
    inj = ServerFaultInjector(server)
    procs = ChaosProfile.parse("kill-shard:3@0.5,crash-worker:0@0.25").apply(inj)
    assert len(procs) == 2
    env.run(until=5.0)
    faults = [(e["t"], e["kind"], e.get("shard", e.get("worker")))
              for e in env.metrics.events() if e["kind"] != "restart-worker"]
    # the worker at position 0 has index 1
    assert faults == [(0.25, "crash-worker", 1), (0.5, "kill-shard", 3),
                      (pytest.approx(0.5 + server.broker.FAILOVER_DETECT_S),
                       "failover", 3)]
    assert not server.broker.shards[3].alive


# ----------------------------------------------------- harness/e2clab wiring

def test_experiment_setup_validates_chaos():
    from repro.harness.experiments import ExperimentSetup

    assert ExperimentSetup().chaos is None
    assert ExperimentSetup(broker_shards=2, chaos="kill-shard@1").chaos_profile() is not None
    with pytest.raises(ValueError):
        ExperimentSetup(chaos="nonsense")


def test_provenance_manager_composes_with_chaos_and_a_topology():
    """The manager deploys the pipeline; tiers and chaos compose with it
    from their own parts, rooted at the manager's host."""
    from repro.e2clab import ProvenanceManager
    from repro.net import ContinuumTopology, TopologySpec

    env = Environment()
    net = Network(env, seed=2)
    manager = ProvenanceManager(net, server=ServerConfig(broker_shards=3))
    topology = ContinuumTopology(net, TopologySpec.parse("edge:2,fog:1,cloud:1"),
                                 root_host=manager.host_name)
    ChaosProfile.parse("kill-shard@0.5").apply(
        ServerFaultInjector(manager.server), topology=topology,
    )
    env.run(until=5.0)
    assert [e["kind"] for e in env.metrics.events()] == ["kill-shard", "failover"]
    [edge, _] = topology.hosts_in("edge")
    assert net.route(edge, manager.host_name)[-1] == manager.host_name


#: case -> (chaos spec, harness ExperimentSetup kwargs, message fragment)
PREFLIGHT_REJECTIONS = {
    "kill-shard-with-one-shard": ("kill-shard@1", {}, "broker_shards >= 2"),
    "backend-link-events": (
        "backend-outage@1:0.5", {"broker_shards": 2}, "server<->backend link",
    ),
    "tier-events-without-topology": (
        "partition-tier:edge-fog@1:1", {}, "continuum topology",
    ),
    "tier-events-with-an-empty-topology": (
        "partition-tier:edge-fog@1:1", {"topology": ""}, "continuum topology",
    ),
    "churn-with-grouping": (
        "churn@1:0.5:1", {"group_size": 5, "qos": 1}, "group_size=0",
    ),
    "churn-with-qos-0": ("churn@1:0.5:1", {"qos": 0}, "qos >= 1"),
    "non-mqttsn-transport": (
        "crash-worker@1", {"transport": "coap"}, "mqttsn server plane",
    ),
    "baseline-system": (
        "crash-worker@1", {"system": "provlake"}, "mqttsn server plane",
    ),
}


@pytest.mark.parametrize("case", PREFLIGHT_REJECTIONS)
def test_chaos_preflight_rejects_before_any_side_effect(monkeypatch, case):
    """A setup no run can execute fails when it is built."""
    from repro.harness import experiments

    chaos, kwargs, fragment = PREFLIGHT_REJECTIONS[case]

    def no_world(*args, **kwargs):
        raise AssertionError("the preflight must run before the world is built")

    monkeypatch.setattr(experiments, "Environment", no_world)
    with pytest.raises(ValueError, match=re.escape(fragment)):
        experiments.ExperimentSetup(chaos=chaos, **kwargs)


def test_the_setups_of_the_roadmap_fail_when_built():
    from repro.harness.experiments import ExperimentSetup

    with pytest.raises(ValueError, match=r"^ExperimentSetup: kill-shard chaos needs"):
        ExperimentSetup(chaos="kill-shard@2.0")
    with pytest.raises(ValueError, match=r"^ExperimentSetup: crash-device/churn chaos "
                                         r"needs group_size=0"):
        ExperimentSetup(group_size=10, chaos="churn@5:0.2:2")


def test_a_capture_config_override_is_preflighted_before_the_world(monkeypatch):
    """``run_capture_experiment``'s ``capture_config`` replaces the setup's
    own, so the run checks the schedule against it."""
    from repro.capture import CaptureConfig
    from repro.harness import experiments
    from repro.workloads import SyntheticWorkloadConfig

    def no_world(*args, **kwargs):
        raise AssertionError("the preflight must run before the world is built")

    monkeypatch.setattr(experiments, "Environment", no_world)
    setup = experiments.ExperimentSetup(qos=1, chaos="churn@1:0.5:1")
    with pytest.raises(ValueError, match="group_size=0"):
        experiments.run_capture_experiment(
            setup, SyntheticWorkloadConfig(number_of_tasks=2), seed=1,
            capture_config=CaptureConfig(qos=1, group_size=5),
        )


def test_the_harness_cli_rejects_an_unrunnable_chaos_flag(capsys):
    from repro.harness import runner

    with pytest.raises(SystemExit) as exit_info:
        runner.main(["table9", "--reps", "1", "--chaos", "kill-shard@2.0"])
    assert exit_info.value.code == 2
    assert "error: ExperimentSetup: kill-shard chaos needs broker_shards >= 2" in (
        capsys.readouterr().err)


# --------------------------------------------- client-plane grammar (fleet)

def test_parse_client_plane_grammar():
    profile = ChaosProfile.parse(
        "crash-device@1:2, crash-device:edge-3@1:2, churn@5:0.2:2,"
        "partition-tier:edge-fog@8:3, degrade-tier:fog-cloud@1:2:0.5"
    )
    assert profile.events == (
        ChaosEvent("crash-device", None, (1.0, 2.0)),
        ChaosEvent("crash-device", None, (1.0, 2.0), qualifier="edge-3"),
        ChaosEvent("churn", None, (5.0, 0.2, 2.0)),
        ChaosEvent("partition-tier", None, (8.0, 3.0), qualifier="edge-fog"),
        ChaosEvent("degrade-tier", None, (1.0, 2.0, 0.5),
                   qualifier="fog-cloud"),
    )
    assert profile.requires_fleet()
    assert profile.requires_topology()
    assert not profile.requires_backend_link()
    assert [e.kind for e in profile.fleet_events()] == [
        "crash-device", "crash-device", "churn",
    ]
    assert [e.kind for e in profile.tier_events()] == [
        "partition-tier", "degrade-tier",
    ]
    server_only = ChaosProfile.parse("kill-shard@1")
    assert not server_only.requires_fleet()
    assert not server_only.requires_topology()


@pytest.mark.parametrize("bad", [
    "churn@5:0.2",                     # wrong arity
    "churn@5:0:2",                     # FRACTION must be > 0
    "churn@5:1.5:2",                   # FRACTION must be <= 1
    "churn@-1:0.5:2",                  # negative AFTER
    "churn@5:0.5:0",                   # DOWN must be > 0
    "crash-device@1:0",                # DOWN must be > 0
    "crash-device@-0.5:1",             # negative AFTER
    "partition-tier@8:3",              # missing tier-pair selector
    "partition-tier:edgefog@8:3",      # not a dash-joined pair
    "partition-tier:Edge-Fog@8:3",     # uppercase tier names
    "partition-tier:edge-fog@8:0",     # DUR must be > 0
    "degrade-tier:edge-fog@1:2:0",     # LOSS must be in (0, 1)
    "degrade-tier:edge-fog@1:2:1.0",   # LOSS must be in (0, 1)
    "churn:3@5:0.2:2",                 # churn takes no selector
    "kill-shard:-1@1",                 # negative index
    "kill-shard@inf",                  # AFTER must be finite
    "crash-worker@nan",                # AFTER must be finite
    "backend-outage@1:inf",            # DUR must be finite
    "flap-backend@inf:0.5:3",          # PERIOD must be finite
    "flap-backend@1:0.5:inf",          # N must be finite
    "churn@inf:0.2:1",                 # AFTER must be finite
    "churn@5:0.2:inf",                 # DOWN must be finite
    "crash-device@1:inf",              # DOWN must be finite
    "partition-tier:edge-fog@inf:3",   # AFTER must be finite
    "degrade-tier:edge-fog@1:inf:0.2", # DUR must be finite
])
def test_parse_rejects_malformed_client_plane_specs(bad):
    with pytest.raises(ValueError):
        ChaosProfile.parse(bad)


def test_rejections_name_the_offending_token():
    with pytest.raises(ValueError, match="churn@5:1.5:2"):
        ChaosProfile.parse("kill-shard@1,churn@5:1.5:2")
    with pytest.raises(ValueError, match="edgefog"):
        ChaosProfile.parse("partition-tier:edgefog@8:3")


def test_apply_requires_the_planes_the_profile_uses():
    env, net, server, _ = make_server()
    inj = ServerFaultInjector(server)
    with pytest.raises(ValueError, match="FleetFaultInjector"):
        ChaosProfile.parse("churn@5:0.2:2").apply(inj)
    with pytest.raises(ValueError, match="ContinuumTopology"):
        ChaosProfile.parse("partition-tier:edge-fog@8:3").apply(inj)
    with pytest.raises(ValueError, match="ServerFaultInjector"):
        ChaosProfile.parse("kill-shard@1").apply()


def test_apply_schedules_tier_events_on_the_topology():
    from repro.net import ContinuumTopology

    env = Environment()
    net = Network(env, seed=2)
    topo = ContinuumTopology(net, "edge:2,fog:1,cloud:1")
    procs = ChaosProfile.parse(
        "partition-tier:edge-fog@1:0.5,degrade-tier:fog-cloud@1:0.5:0.3"
    ).apply(topology=topo)
    assert len(procs) == 2
    env.run(until=1.2)
    assert topo.tier_partitioned("edge", "fog")
    env.run(until=5.0)
    assert not topo.tier_partitioned("edge", "fog")
    assert sorted(e["kind"] for e in env.metrics.events()) == [
        "degrade-tier", "heal-tier", "partition-tier", "restore-tier"]
