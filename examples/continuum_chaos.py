"""Continuum chaos: a tiered edge fleet churns mid-run, nothing is lost.

Twelve devices sit behind the paper's worst evaluated uplink (25 Kbit/s,
23 ms — the ``constrained-edge`` topology preset), fanning durable
capture streams through a fog tier into a ProvLight server on the cloud
root.  Mid-run the chaos schedule — two spec strings, replayable from
any CLI — crashes a quarter of the fleet (in-memory state gone, WAL
journals intact) and then cuts the whole edge<->fog backhaul while some
of those restarts are still trying to come back.  Restarted incarnations
retry setup under backoff until the partition heals, replay their
journals, and the interrupted captures are retried by the fleet proxies:
the run asserts every record reaches the backend exactly once.

Run with:  python examples/continuum_chaos.py
"""

import shutil
import tempfile

from repro.capture import CaptureConfig, create_client
from repro.core import CallableBackend, Data, ProvLightServer, ServerConfig, Task, Workflow
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.net import (
    ChaosProfile,
    ContinuumTopology,
    FleetFaultInjector,
    Network,
    TopologySpec,
)
from repro.simkernel import Environment

N_DEVICES = 12
N_TASKS = 4
RECORDS_PER_DEVICE = 2 + 2 * N_TASKS  # wf begin/end + task begin/end pairs

#: the whole run's fault plan, reproducible from these two strings
#: (the harness equivalent: --topology constrained-edge
#:  --chaos 'churn@1:0.25:1.5,partition-tier:edge-fog@2:1.5')
TOPOLOGY = "constrained-edge"
CHAOS = "churn@1:0.25:1.5,partition-tier:edge-fog@2:1.5"


def main() -> None:
    # --- 1. the tiered continuum -------------------------------------------
    env = Environment()
    net = Network(env, seed=42)
    net.add_host("cloud", device=Device(env, XEON_GOLD_5220, name="cloud-server"))
    stored = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(stored.extend),
        config=ServerConfig(workers=4, broker_shards=2),
    )
    spec = TopologySpec.parse(TOPOLOGY).scaled(N_DEVICES)
    devices = []

    def factory(tier, index):
        if tier != spec.leaf.name:
            return None  # fog hosts just forward
        device = Device(env, A8M3, name=f"{tier}-{index}")
        devices.append(device)
        return device

    topology = ContinuumTopology(net, spec, root_host="cloud",
                                 device_factory=factory)

    # --- 2. a durable fleet behind churn-transparent proxies ----------------
    journal_dir = tempfile.mkdtemp(prefix="provlight-continuum-")
    fleet = FleetFaultInjector(env, topology=topology, seed=42)
    proxies = []
    for device in devices:
        config = CaptureConfig(
            transport="mqttsn", durable=True, journal_dir=journal_dir,
            client_id=device.name, qos=1,
            reconnect_base_s=0.2, reconnect_max_s=1.0,
        )

        def build(device=device, config=config):
            return create_client(device, server.endpoint,
                                 f"provlight/{device.name}/data", config)

        fleet.register(device.name, build(), build)
        proxies.append(fleet.proxy(device.name))

    # --- 3. the chaos schedule, parsed not hand-wired -----------------------
    profile = ChaosProfile.parse(CHAOS)
    profile.apply(fleet=fleet, topology=topology)

    # --- 4. the instrumented workloads --------------------------------------
    finished = []

    def workload(env, idx, proxy):
        yield from server.pool.attach(f"provlight/{proxy.name}/data")
        yield from proxy.setup()
        wf_id = idx + 1
        workflow = Workflow(wf_id, proxy)
        yield from workflow.begin()
        for i in range(1, N_TASKS + 1):
            task = Task(i, workflow)
            yield from task.begin([Data(f"d{idx}-in{i}", wf_id, {"in": [1.0] * 4})])
            yield env.timeout(0.25)
            yield from task.end([Data(f"d{idx}-out{i}", wf_id, {"out": [2.0] * 4},
                                      derivations=[f"d{idx}-in{i}"])])
        yield from workflow.end(drain=True)
        finished.append(idx)

    for i, proxy in enumerate(proxies):
        env.process(workload(env, i, proxy))
    env.run(until=600)

    # --- 5. recovery asserted -----------------------------------------------
    stats = fleet.stats()
    completed = sum(p.records_completed for p in proxies)
    expected = N_DEVICES * RECORDS_PER_DEVICE
    print("=== continuum chaos: fleet churn + tier partition, zero loss ===")
    print(f"topology               : {topology.spec.describe()}")
    print(f"chaos                  : {CHAOS}")
    print(f"simulated time         : {env.now:.3f}s")
    print(f"devices crashed        : {stats['devices_crashed']} "
          f"(restarted {stats['devices_restarted']}, "
          f"journal recoveries {stats['journal_recoveries']})")
    print(f"max crash->up recovery : {stats['max_recovery_s']:.2f}s")
    print(f"tier outages           : {topology.tier_outages}")
    print(f"proxy ledger           : {completed} captures completed")
    print(f"records at backend     : {len(stored)}")

    assert len(finished) == N_DEVICES, "a workload never finished its drain"
    assert stats["devices_crashed"] == round(0.25 * N_DEVICES)
    assert stats["devices_restarted"] == stats["devices_crashed"]
    assert stats["devices_down"] == 0, "a device never came back"
    assert stats["journal_recoveries"] >= 1, "no journal had anything to replay"
    assert len(topology.tier_outages) == 1, "the partition never ran"
    assert completed == expected
    assert len(stored) == expected, "records lost or doubled under chaos!"
    print("\nrecovered: every record ingested exactly once across the continuum.")

    for name in fleet.devices:
        fleet.client_of(name).close()
    server.deduper.close()
    shutil.rmtree(journal_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
