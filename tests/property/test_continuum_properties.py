"""Property tests for the continuum chaos plane.

Two invariants the acceptance suite spot-checks and these tests sweep:

* healing a tier partition always restores routability — whatever
  topology shape and whatever interleaving of partition/heal calls
  preceded it, after the last heal every inter-tier link is up and a
  probe datagram crosses from any leaf to the root;
* device churn never reorders a client's ``(client_id, seq)`` stream at
  the backend — whenever the crash lands and however long the device
  stays down, the dedup index sees each client's seqs strictly
  increasing, each exactly once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture import CaptureConfig, create_client
from repro.capture.envelope import ReplayDeduper
from repro.core import CallableBackend, ProvLightServer, ServerConfig
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.net import ContinuumTopology, FleetFaultInjector, Network
from repro.simkernel import Environment

# -- partition/heal restores routability ---------------------------------

tier_counts = st.lists(st.integers(min_value=1, max_value=4),
                       min_size=2, max_size=4)


@given(
    counts=tier_counts,
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2),  # adjacent pair
                  st.booleans()),                         # partition/heal
        max_size=8,
    ),
    probe_leaf=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_healing_every_partition_restores_routability(counts, ops, probe_leaf):
    counts[-1] = 1  # single root so the probe target is unambiguous
    spec = ",".join(f"t{i}:{count}" for i, count in enumerate(counts))
    env = Environment()
    net = Network(env, seed=3)
    topo = ContinuumTopology(net, spec)
    names = [f"t{i}" for i in range(len(counts))]
    pairs = list(zip(names, names[1:]))
    # arbitrary interleaving of partitions and heals (both idempotent)
    for which, partition in ops:
        a, b = pairs[which % len(pairs)]
        if partition:
            topo.partition_tiers(a, b)
        else:
            topo.heal_tiers(a, b)
    for a, b in pairs:
        topo.heal_tiers(a, b)

    # every inter-tier link is administratively up again
    for a, b in pairs:
        assert not topo.tier_partitioned(a, b)
        for injector in topo.injectors(a, b):
            assert all(link.up for link in injector._links)
    # and packets actually flow end to end: leaf -> root probe
    leaf = topo.edge_hosts[probe_leaf % len(topo.edge_hosts)]
    rx = net.hosts[topo.root].udp_socket(port=7000)
    tx = net.hosts[leaf].udp_socket(port=7001)
    tx.sendto(b"probe", (topo.root, 7000))
    env.run(until=5.0)
    assert rx.pending == 1


# -- churn never reorders a client's seq stream --------------------------

class OrderSpyDeduper(ReplayDeduper):
    def __init__(self):
        super().__init__()
        self.mark_order = {}

    def mark(self, client_id, seq):
        self.mark_order.setdefault(client_id, []).append(seq)
        super().mark(client_id, seq)


@given(
    crash_at=st.floats(min_value=0.05, max_value=3.0),
    down_s=st.floats(min_value=0.3, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None)
def test_churn_never_reorders_a_clients_seq_stream(tmp_path_factory,
                                                   crash_at, down_s, seed):
    tmp_path = tmp_path_factory.mktemp("churn-journals")
    env = Environment()
    net = Network(env, seed=seed % 97)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-dev"))
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=2),
    )
    spy = OrderSpyDeduper()
    server.deduper = spy
    fleet = FleetFaultInjector(env, seed=seed)
    dev = Device(env, A8M3, name="edge-0")
    net.add_host("host-edge-0", device=dev)
    net.connect("host-edge-0", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    config = CaptureConfig(
        transport="mqttsn", durable=True, journal_dir=str(tmp_path),
        client_id="edge-0", qos=1,
        reconnect_base_s=0.2, reconnect_factor=1.5, reconnect_max_s=1.0,
    )

    def build():
        return create_client(dev, server.endpoint, "conf/edge-0/data", config)

    fleet.register("edge-0", build(), build)
    proxy = fleet.proxy("edge-0")
    fleet.crash_restart_at(crash_at, down_s)

    done = []

    def workload(env):
        yield from server.pool.attach("conf/edge-0/data")
        yield from proxy.setup()
        for i in range(12):
            yield from proxy.capture({
                "kind": "task_begin", "workflow_id": 1,
                "transformation_id": 1, "task_id": i, "time": proxy.now,
            })
            yield env.timeout(0.25)
        yield from proxy.drain()
        done.append(env.now)

    env.process(workload(env))
    env.run(until=600)

    assert done, "the workload never finished"
    assert proxy.records_completed == 12
    assert len(received) == 12  # zero loss, exactly once
    seqs = spy.mark_order.get("edge-0", [])
    assert seqs == sorted(seqs), "backend saw seqs out of order"
    assert len(seqs) == len(set(seqs)), "backend double-ingested a seq"
