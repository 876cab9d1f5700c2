"""ContinuumTopology + TopologySpec: tiered edge/fog/cloud emulation."""

import pytest

from repro.net import (
    LINK_PROFILES,
    TOPOLOGY_PRESETS,
    ContinuumTopology,
    LinkProfile,
    Network,
    TopologySpec,
)
from repro.simkernel import Environment


# ------------------------------------------------------------- the grammar

def test_parse_full_spec():
    spec = TopologySpec.parse("edge:8:lossy-wireless,fog:2:wan-fog,cloud:1")
    assert [t.name for t in spec.tiers] == ["edge", "fog", "cloud"]
    assert spec.leaf.count == 8
    assert spec.leaf.profile == "lossy-wireless"
    assert spec.root.profile is None
    assert spec.tier("fog").count == 2
    assert spec.describe() == "edge:8:lossy-wireless,fog:2:wan-fog,cloud:1"


def test_parse_resolves_presets_and_roundtrips():
    for name, text in TOPOLOGY_PRESETS.items():
        spec = TopologySpec.parse(name)
        assert spec.describe() == text
        # every preset profile must exist
        for tier in spec.tiers:
            assert tier.profile is None or tier.profile in LINK_PROFILES


def test_scaled_resizes_only_the_leaf_tier():
    spec = TopologySpec.parse("lossy-wireless").scaled(6)
    assert spec.leaf.count == 6
    assert spec.leaf.profile == "lossy-wireless"
    assert spec.tier("fog").count == 4
    with pytest.raises(ValueError):
        spec.scaled(0)


@pytest.mark.parametrize("bad", [
    "",                                  # no tiers at all
    "edge:8",                            # a single tier is not a continuum
    "edge",                              # missing count
    "edge:8:ideal:extra,cloud:1",        # too many fields
    "Edge:8,cloud:1",                    # uppercase tier name
    "my-tier:8,cloud:1",                 # dash in tier name (qualifier clash)
    "edge:x,cloud:1",                    # non-integer count
    "edge:0,cloud:1",                    # count < 1
    "edge:8,edge:1",                     # duplicate tier name
    "edge:8:warp-drive,cloud:1",         # unknown profile
    "edge:8,cloud:1:ideal",              # root tier takes no profile
])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        TopologySpec.parse(bad)


def test_rejections_name_the_offending_token():
    with pytest.raises(ValueError, match="warp-drive"):
        TopologySpec.parse("edge:8:warp-drive,cloud:1")
    with pytest.raises(ValueError, match="'x'"):
        TopologySpec.parse("edge:x,cloud:1")
    with pytest.raises(ValueError, match="my-tier"):
        TopologySpec.parse("my-tier:8,cloud:1")


def test_link_profile_validates_eagerly():
    with pytest.raises(ValueError):
        LinkProfile("bad", rate="1.2.3Gbit")
    with pytest.raises(ValueError):
        LinkProfile("bad", delay="23parsecs")
    with pytest.raises(ValueError):
        LinkProfile("bad", loss=1.0)


# ------------------------------------------------------------ construction

def make_topology(spec="edge:6:constrained-edge,fog:2,cloud:1", **kwargs):
    env = Environment()
    net = Network(env, seed=7)
    topo = ContinuumTopology(net, spec, **kwargs)
    return env, net, topo


def test_build_creates_tiered_hosts_and_balanced_uplinks():
    env, net, topo = make_topology()
    assert topo.edge_hosts == [f"edge-{i}" for i in range(6)]
    assert topo.hosts_in("fog") == ["fog-0", "fog-1"]
    assert topo.root == "cloud-0"
    # balanced fan-in: edge-i parents onto fog-(i % 2)
    assert net.route("edge-3", "cloud-0") == ["edge-3", "fog-1", "cloud-0"]
    # the edge uplink carries the constrained-edge profile
    link = net.link("edge-0", "fog-0")
    assert link.bandwidth_bps == pytest.approx(25e3)
    assert link.latency_s == pytest.approx(0.023)


def test_build_applies_burst_loss_profiles():
    env, net, topo = make_topology("edge:2:lossy-wireless,cloud:1")
    link = net.link("edge-0", "cloud-0")
    profile = LINK_PROFILES["lossy-wireless"]
    assert link.loss == pytest.approx(profile.loss)
    assert link.burst_loss == pytest.approx(profile.burst_loss)
    assert link.p_enter_burst == pytest.approx(profile.p_enter_burst)


def test_root_host_reuses_an_existing_host():
    env = Environment()
    net = Network(env, seed=7)
    net.add_host("mgr")
    topo = ContinuumTopology(net, "edge:2,cloud:1", root_host="mgr")
    assert topo.root == "mgr"
    assert net.route("edge-1", "mgr") == ["edge-1", "mgr"]
    with pytest.raises(KeyError):
        ContinuumTopology(Network(Environment()), "edge:2,cloud:1",
                          root_host="ghost")
    with pytest.raises(ValueError):
        ContinuumTopology(Network(Environment()), "edge:2,cloud:2",
                          root_host="mgr")


def test_device_factory_attaches_leaf_devices():
    placed = []

    def factory(tier, index):
        placed.append((tier, index))
        return None

    make_topology("edge:3,cloud:1", device_factory=factory)
    assert ("edge", 0) in placed and ("cloud", 0) in placed


# ------------------------------------------------------- tier-level faults

def test_partition_and_heal_tiers_cuts_and_restores_routing():
    env, net, topo = make_topology()
    assert not topo.tier_partitioned("edge", "fog")
    topo.partition_tiers("edge", "fog")
    assert topo.tier_partitioned("fog", "edge")  # order-insensitive
    assert not any(link.up for link in topo.links("edge", "fog"))
    topo.partition_tiers("edge", "fog")  # idempotent
    env.run(until=2.0)
    topo.heal_tiers("edge", "fog")
    assert not topo.tier_partitioned("edge", "fog")
    assert all(link.up for link in topo.links("edge", "fog"))
    assert env.metrics.events() == [
        {"t": 0.0, "kind": "partition-tier", "pair": "edge-fog"},
        {"t": pytest.approx(2.0), "kind": "heal-tier", "pair": "edge-fog"},
    ]


def test_partition_rejects_non_adjacent_tiers():
    env, net, topo = make_topology()
    with pytest.raises(ValueError, match="not adjacent"):
        topo.partition_tiers("edge", "cloud")
    with pytest.raises(KeyError):
        topo.partition_tiers("edge", "mist")


def test_partition_tiers_at_runs_on_the_sim_clock():
    env, net, topo = make_topology()
    topo.partition_tiers_at("edge", "fog", after_s=1.0, duration_s=0.5)
    env.run(until=1.2)
    assert topo.tier_partitioned("edge", "fog")
    env.run(until=2.0)
    assert not topo.tier_partitioned("edge", "fog")
    assert len(env.metrics.events("heal-tier")) == 1
    with pytest.raises(ValueError):
        topo.partition_tiers_at("edge", "fog", after_s=-1.0, duration_s=0.5)
    with pytest.raises(ValueError):
        topo.partition_tiers_at("edge", "fog", after_s=1.0, duration_s=0.0)


def test_degrade_and_clear_restores_the_original_loss():
    env, net, topo = make_topology("edge:2:lossy-wireless,cloud:1")
    original = net.link("edge-0", "cloud-0").loss
    topo.degrade_tiers("edge", "cloud", loss=0.5)
    assert net.link("edge-0", "cloud-0").loss == pytest.approx(0.5)
    topo.degrade_tiers("edge", "cloud", loss=0.7)  # storm over storm
    env.run(until=1.0)
    topo.clear_degradation("edge", "cloud")
    assert net.link("edge-0", "cloud-0").loss == pytest.approx(original)
    topo.clear_degradation("edge", "cloud")  # idempotent
    assert [(e["kind"], e["t"], e.get("loss")) for e in env.metrics.events()] == [
        ("degrade-tier", 0.0, 0.5), ("degrade-tier", 0.0, 0.7),
        ("restore-tier", pytest.approx(1.0), None),
    ]
    with pytest.raises(ValueError):
        topo.degrade_tiers("edge", "cloud", loss=0.0)
    with pytest.raises(ValueError):
        topo.degrade_tiers("edge", "cloud", loss=1.0)


def test_packets_stop_during_partition_and_flow_after_heal():
    env, net, topo = make_topology("edge:1,cloud:1")
    rx = net.hosts["cloud-0"].udp_socket(port=9000)
    tx = net.hosts["edge-0"].udp_socket(port=9001)
    topo.partition_tiers("edge", "cloud")
    tx.sendto(b"during", ("cloud-0", 9000))
    env.run(until=1.0)
    assert rx.pending == 0
    topo.heal_tiers("edge", "cloud")
    tx.sendto(b"after", ("cloud-0", 9000))
    env.run(until=2.0)
    assert rx.pending == 1


# ---------------------------------------------------------- observability

def test_a_tier_fault_is_one_event_not_one_per_uplink():
    env, net, topo = make_topology()
    assert topo.spec.describe() == "edge:6:constrained-edge,fog:2,cloud:1"
    topo.partition_tiers("fog", "cloud")
    topo.partition_tiers("fog", "cloud")  # idempotent: no second event
    topo.degrade_tiers("edge", "fog", loss=0.3)
    assert topo.tier_partitioned("cloud", "fog")
    assert env.metrics.events() == [
        {"t": 0.0, "kind": "partition-tier", "pair": "fog-cloud"},
        {"t": 0.0, "kind": "degrade-tier", "pair": "edge-fog", "loss": 0.3},
    ]
