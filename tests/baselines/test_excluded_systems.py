"""Executable version of paper Table IV: why PROV-IO and Komadu were
excluded from the performance analysis."""

import numpy as np
import pytest

from repro.baselines.excluded import (
    ExcludedSetup,
    FlashStorage,
    KomaduClient,
    ProvIOClient,
    run_excluded,
)
from repro.device import A8M3, Device
from repro.simkernel import Environment
from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

CONFIG = SyntheticWorkloadConfig(number_of_tasks=20, task_duration_s=0.1,
                                 attributes_per_task=100)


def run_with(client_factory):
    env = Environment()
    dev = Device(env, A8M3)
    client = client_factory(dev)
    result = {}
    env.process(synthetic_workload(env, client, CONFIG,
                                   rng=np.random.default_rng(1), result=result))
    env.run()
    return result, dev, client


# -- FlashStorage ---------------------------------------------------------


def test_flash_write_blocks_proportionally():
    env = Environment()
    flash = FlashStorage(env, write_bandwidth_bps=8e6, sync_latency_s=0.01)

    def proc(env):
        yield from flash.write(100_000)  # 0.1s transfer + 0.01 sync

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.11)
    assert flash.bytes_written.total == 100_000


# -- PROV-IO ---------------------------------------------------------------


def test_provio_graph_grows_in_memory_between_dumps():
    """Table IV: periodic in-memory graph dumps, unsuitable for 256MB devices."""
    result, dev, client = run_with(lambda d: ProvIOClient(d, dump_every_records=1000))
    # nothing was ever released: the whole run is resident
    assert client.resident_graph_bytes > 0
    assert dev.memory.used("capture-buffers") == client.resident_graph_bytes
    assert client.dumps.count == 0  # never reached the dump threshold
    client.close()
    assert dev.memory.used("capture-buffers") == 0


def test_provio_dump_stalls_workflow():
    frequent, _, client_f = run_with(lambda d: ProvIOClient(d, dump_every_records=5))
    rare, _, client_r = run_with(lambda d: ProvIOClient(d, dump_every_records=1000))
    assert client_f.dumps.count > 0
    # every dump writes the whole (growing) graph: frequent dumps stall more
    assert frequent["elapsed"] > rare["elapsed"] + 0.1


def test_provio_no_network_transmission():
    """The defining limitation: captured data never leaves the device."""
    result, dev, client = run_with(lambda d: ProvIOClient(d, dump_every_records=10))
    assert dev.radio.tx.total == 0


def test_provio_rejects_bad_dump_interval():
    env = Environment()
    with pytest.raises(ValueError):
        ProvIOClient(Device(env, A8M3), dump_every_records=0)


def test_provio_drain_flushes_partial_graph():
    env = Environment()
    dev = Device(env, A8M3)
    client = ProvIOClient(dev, dump_every_records=1000)

    def proc(env):
        yield from client.capture({"kind": "task_end", "workflow_id": 1,
                                   "task_id": 0, "data": []})
        yield from client.drain()

    env.process(proc(env))
    env.run()
    assert client.dumps.count == 1


# -- Komadu ---------------------------------------------------------------


def test_komadu_pays_server_costs_on_device():
    """Table IV: capture and processing share the machine, so the edge CPU
    absorbs server-grade work for every record."""
    result, dev, client = run_with(KomaduClient)
    server_time = dev.cpu.busy_time("capture-server")
    client_time = dev.cpu.busy_time("capture")
    assert server_time > 10 * client_time  # the pipeline dwarfs capture itself
    # overhead is far beyond the paper's 3% bar
    overhead = result["elapsed"] / CONFIG.nominal_duration_s() - 1
    assert overhead > 0.03


def test_komadu_overhead_worse_than_blocking_http_baselines():
    """On this short-task workload Komadu's local pipeline costs more CPU
    time than even ProvLake's blocking HTTP capture."""
    komadu, dev_k, _ = run_with(KomaduClient)
    from repro.harness import ExperimentSetup, measure_overhead

    provlake = measure_overhead(ExperimentSetup(system="provlake"), CONFIG,
                                repetitions=1, keep_outcomes=False)
    komadu_overhead = komadu["elapsed"] / CONFIG.nominal_duration_s() - 1
    # Komadu burns comparable-or-more *CPU-busy* time with no server at all
    assert dev_k.cpu.busy_time() / CONFIG.nominal_duration_s() > 0.2
    assert komadu_overhead > 0.03


def test_komadu_backend_receives_records():
    sink = []
    env = Environment()
    dev = Device(env, A8M3)
    client = KomaduClient(dev, backend=sink.append)

    def proc(env):
        yield from client.capture({"kind": "task_begin", "workflow_id": 1,
                                   "task_id": 0, "data": []})

    env.process(proc(env))
    env.run()
    assert len(sink) == 1


# -- run_excluded: one Table IV run ----------------------------------------

#: capture calls of one CONFIG run: workflow begin/end, task begin/end
RECORDS = 2 + 2 * CONFIG.number_of_tasks


def test_excluded_setup_rejects_an_unknown_system():
    """A system name that is neither excluded system must not run as Komadu."""
    with pytest.raises(ValueError, match="'provlight'"):
        ExcludedSetup("provlight")


def test_excluded_setup_rejects_a_non_positive_dump_interval():
    with pytest.raises(ValueError, match="dump_every_records"):
        ExcludedSetup("prov-io", dump_every_records=0)


def test_run_excluded_repeats_itself_for_a_seed():
    setup = ExcludedSetup("prov-io", dump_every_records=5)
    first = run_excluded(setup, CONFIG, 1)
    assert run_excluded(setup, CONFIG, 1) == first
    # the seed draws the task-duration jitter
    assert run_excluded(setup, CONFIG, 2)["elapsed_s"] != first["elapsed_s"]


@pytest.mark.parametrize("every", [5, 7, 1000])
def test_run_excluded_counts_one_prov_io_dump_per_interval(every):
    measures = run_excluded(ExcludedSetup("prov-io", every), CONFIG, 1)
    assert measures["dumps"] == RECORDS // every
    # the graph is never released, whatever the interval
    assert measures["resident_bytes"] == run_excluded(
        ExcludedSetup("prov-io", 1000), CONFIG, 1)["resident_bytes"] > 0
    assert measures["tx_bytes"] == 0
    assert measures["server_cpu_ratio"] == 0


def test_run_excluded_charges_komadu_server_work_to_the_edge():
    measures = run_excluded(ExcludedSetup("komadu"), CONFIG, 1)
    assert measures["server_cpu_ratio"] > 10
    assert measures["cpu_utilization"] > 0.2
    assert measures["tx_bytes"] == 0
    assert measures["resident_bytes"] == 0
    assert measures["dumps"] == 0
