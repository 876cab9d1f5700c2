"""Restart-safe server-side dedup: the sink-crash-then-replay regression.

PR 6 made *clients* durable (journal + replay-on-reconnect).  The gap
this closes: the server's :class:`ReplayDeduper` lived only in memory,
so a crashed-and-restarted sink would re-ingest every record a durable
client replays.  With ``state_path`` the dedup floor survives the
restart and replays stay exactly-once across sink incarnations.
"""

import os

import pytest

from repro.capture import CaptureConfig, create_transport, deploy_capture_sink
from repro.capture.envelope import ReplayDeduper, wrap_payload
from repro.core import ServerConfig, encode_payload
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment
from ..waiting import outcome


# ------------------------------------------------------------- unit level

def test_deduper_state_survives_restart(tmp_path):
    path = str(tmp_path / "dedup.log")
    first = ReplayDeduper(state_path=path)
    for seq in (1, 2, 3, 7):
        assert not first.seen("edge-0", seq)
        first.mark("edge-0", seq)
    first.mark("edge-1", 1)
    first.close()

    second = ReplayDeduper(state_path=path)
    for seq in (1, 2, 3, 7):
        assert second.seen("edge-0", seq)
    assert second.seen("edge-1", 1)
    assert not second.seen("edge-0", 4)   # the gap is still open
    assert not second.seen("edge-0", 8)
    assert not second.seen("edge-2", 1)
    second.close()


def test_deduper_recovery_compacts_the_log(tmp_path):
    path = str(tmp_path / "dedup.log")
    first = ReplayDeduper(state_path=path)
    for seq in range(1, 101):
        first.mark("edge-0", seq)
    first.close()
    size_before = os.path.getsize(path)

    second = ReplayDeduper(state_path=path)  # recovery rewrites the log
    second.close()
    # 100 contiguous seqs compact to one floor line
    assert os.path.getsize(path) < size_before
    third = ReplayDeduper(state_path=path)
    assert third.seen("edge-0", 100)
    assert not third.seen("edge-0", 101)
    third.close()


def test_deduper_tolerates_a_torn_tail_line(tmp_path):
    path = str(tmp_path / "dedup.log")
    first = ReplayDeduper(state_path=path)
    first.mark("edge-0", 1)
    first.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('["edge-0", 2')  # the crash tore the last append

    second = ReplayDeduper(state_path=path)
    assert second.seen("edge-0", 1)
    assert not second.seen("edge-0", 2)  # the torn mark never happened
    second.close()


def test_deduper_without_state_path_is_memory_only(tmp_path):
    deduper = ReplayDeduper()
    deduper.mark("c", 1)
    assert deduper.seen("c", 1)
    deduper.close()  # harmless without a backing file
    assert ReplayDeduper().seen("c", 1) is False


# ----------------------------------------- the sink-crash-then-replay story

TOPIC = "conf/edge/data"


def run_sink_incarnation(state_path, wires, transport="mqttsn", seed=7):
    """One sink lifetime: send every wire payload, one at a time.

    Returns the records the backend ingested and the sink (for its
    front's counters).  Each call is a fresh simulation — exactly what a
    sink crash + restart looks like: all in-memory state gone, only
    ``state_path`` carries over.
    """
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    edge = Device(env, A8M3, name="edge")
    net.add_host("edge", device=edge)
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    received = []
    sink, endpoint = deploy_capture_sink(
        transport, net.hosts["cloud"], received.extend,
        server=ServerConfig(dedup_state_path=state_path),
    )
    sender = create_transport(edge, endpoint, TOPIC,
                              CaptureConfig(transport=transport, qos=1))

    def scenario(env):
        if transport == "mqttsn":
            yield from sink.pool.attach("conf/#")
        yield from sender.connect()
        yield from sender.register(TOPIC)
        for wire in wires:
            if sender.blocking:
                yield from sender.send(wire)
            else:
                done, on_done = outcome(env)
                sender.send(wire, on_done)
                yield done
            yield env.timeout(0.05)

    env.process(scenario(env))
    env.run(until=60)
    sink.front.deduper.close()
    return received, sink


def record(i):
    return {
        "kind": "task_end", "workflow_id": 1, "task_id": i,
        "transformation_id": 0, "dependencies": [], "time": float(i),
        "status": "finished",
        "data": [{"id": f"d{i}", "workflow_id": 1, "derivations": [],
                  "attributes": {"v": i}}],
    }


@pytest.mark.parametrize("transport", ["mqttsn", "coap", "http"])
def test_restarted_sink_does_not_reingest_replayed_records(tmp_path, transport):
    state_path = str(tmp_path / "server-dedup.log")
    wires = [
        wrap_payload("edge-0", seq, encode_payload(record(seq)))
        for seq in range(1, 6)
    ]

    first_received, first_server = run_sink_incarnation(state_path, wires,
                                                        transport)
    assert len(first_received) == 5
    assert first_server.front.ingested.total == 5

    # the sink crashes; the durable client saw no acks for its last
    # publishes and replays everything, then continues with fresh seqs
    replay_plus_new = wires + [
        wrap_payload("edge-0", seq, encode_payload(record(seq)))
        for seq in range(6, 9)
    ]
    second_received, second_server = run_sink_incarnation(
        state_path, replay_plus_new, transport
    )
    # exactly-once across incarnations: only the 3 new records ingest
    assert len(second_received) == 3
    assert second_server.front.duplicates.count == 5
    assert second_server.front.ingested.total == 3


def test_without_state_path_a_restart_reingests(tmp_path):
    """The control: memory-only dedup forgets across incarnations —
    documenting why the persisted floor matters."""
    wires = [
        wrap_payload("edge-0", seq, encode_payload(record(seq)))
        for seq in range(1, 4)
    ]
    first_received, _ = run_sink_incarnation(None, wires)
    second_received, second_server = run_sink_incarnation(None, wires)
    assert len(first_received) == 3
    assert len(second_received) == 3  # the replays ingested again
    assert second_server.front.duplicates.count == 0
