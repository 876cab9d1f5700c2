"""Microbenchmarks: real wall-clock cost of the wire codecs.

Unlike the table benchmarks (which measure *simulated* time), these
measure the actual Python cost of the encoders/decoders this repository
runs on every captured record, and compare ProvLight's binary format
against the baselines' JSON path.  They also validate the paper's
qualitative point: the compact binary encoding is cheaper to produce
and much smaller than verbose JSON.
"""

import itertools
import json

import pytest

from repro.core import decode_payload, encode_payload, serialization
from repro.mqttsn import packets as pkt

RECORD_10 = {
    "kind": "task_end", "workflow_id": 1, "task_id": "3-42",
    "transformation_id": 3, "dependencies": ["3-41"], "time": 21.5,
    "status": "finished",
    "data": [{"id": "out42", "workflow_id": 1, "derivations": ["in42"],
              "attributes": {"out": [2] * 10}}],
}

RECORD_100 = {
    **RECORD_10,
    "data": [{"id": "out42", "workflow_id": 1, "derivations": ["in42"],
              "attributes": {"out": [2] * 100}}],
}


#: the grouped-capture payload shape of Tables III/VIII: one flush of a
#: group_size=50 buffer, where key interning compounds across records
GROUP_50 = [RECORD_10] * 50


def test_encode_payload_10_attrs(benchmark):
    wire = benchmark(encode_payload, RECORD_10)
    assert decode_payload(wire) == RECORD_10


def test_encode_payload_100_attrs(benchmark):
    wire = benchmark(encode_payload, RECORD_100)
    assert decode_payload(wire) == RECORD_100


def test_encode_payload_100_attrs_v1_baseline(benchmark):
    # the seed (v1) encoder, kept as the perf baseline the v2 fast path
    # is judged against (>=2x encode+decode is the acceptance bar)
    wire = benchmark(lambda: encode_payload(RECORD_100, version=1))
    assert decode_payload(wire) == RECORD_100


def test_encode_payload_uncompressed_100_attrs(benchmark):
    wire = benchmark(lambda: encode_payload(RECORD_100, compress=False))
    assert decode_payload(wire) == RECORD_100


def test_decode_payload_100_attrs(benchmark):
    wire = encode_payload(RECORD_100)
    assert benchmark(decode_payload, wire) == RECORD_100


def test_decode_payload_100_attrs_v1_baseline(benchmark):
    wire = encode_payload(RECORD_100, version=1)
    assert benchmark(decode_payload, wire) == RECORD_100


def test_encode_grouped_payload_50x10(benchmark):
    wire = benchmark(encode_payload, GROUP_50)
    assert decode_payload(wire) == GROUP_50


def test_encode_grouped_payload_50x10_v1_baseline(benchmark):
    wire = benchmark(lambda: encode_payload(GROUP_50, version=1))
    assert decode_payload(wire) == GROUP_50


def test_decode_grouped_payload_50x10(benchmark):
    wire = encode_payload(GROUP_50)
    assert benchmark(decode_payload, wire) == GROUP_50


def test_grouped_payload_interning_size_win():
    # key/value interning compounds across grouped records: the v2
    # representation is >=20% smaller before compression, and the
    # compressed wire bytes must not regress either
    v1 = len(encode_payload(GROUP_50, version=1, compress=False))
    v2 = len(encode_payload(GROUP_50, compress=False))
    assert v2 <= v1 * 0.8, f"uncompressed grouped: v1={v1} v2={v2}"
    v1c = len(encode_payload(GROUP_50, version=1))
    v2c = len(encode_payload(GROUP_50))
    assert v2c <= v1c, f"compressed grouped: v1={v1c} v2={v2c}"


def test_json_encode_100_attrs_for_comparison(benchmark):
    body = benchmark(lambda: json.dumps(RECORD_100).encode())
    # the headline size comparison: binary+zlib is much smaller than JSON
    assert len(encode_payload(RECORD_100)) < len(body) / 2


def test_mqttsn_publish_encode(benchmark):
    payload = encode_payload(RECORD_100)
    message = pkt.Publish(topic_id=7, msg_id=99, payload=payload, qos=2)
    wire = benchmark(message.encode)
    assert pkt.decode(wire) == message


def test_mqttsn_publish_decode(benchmark):
    wire = pkt.Publish(topic_id=7, msg_id=99,
                       payload=encode_payload(RECORD_100), qos=2).encode()
    decoded = benchmark(pkt.decode, wire)
    assert decoded.topic_id == 7


def test_encrypted_payload_overhead(benchmark):
    from repro.core import PayloadCipher, derive_key

    cipher = PayloadCipher(derive_key("bench"))
    wire = benchmark(lambda: encode_payload(RECORD_100, cipher=cipher))
    assert decode_payload(wire, cipher=cipher) == RECORD_100


def test_journal_append_100_attrs(benchmark, tmp_path):
    # the durable-capture write-through: one hash-chained journal frame
    # (one os.write) per captured payload — the real cost a durable=True
    # client pays on top of encoding (the BENCH headline tracks the ratio)
    from repro.capture.journal import CaptureJournal, journal_path_for

    journal = CaptureJournal(journal_path_for(str(tmp_path), "bench-client"), "bench-client")
    payload = encode_payload(RECORD_100)
    benchmark(journal.append, payload)
    assert journal.verify_chain() == len(journal)
    journal.close()


def test_journal_append_signed_100_attrs(benchmark, tmp_path):
    from repro.capture.journal import CaptureJournal, HmacRecordSigner, journal_path_for

    journal = CaptureJournal(
        journal_path_for(str(tmp_path), "bench-client"),
        "bench-client",
        signer=HmacRecordSigner(b"bench-signing-key-16"),
    )
    payload = encode_payload(RECORD_100)
    benchmark(journal.append, payload)
    assert journal.verify_chain() == len(journal)
    journal.close()


def test_journal_append_ack_100_attrs(benchmark, tmp_path):
    # the whole durable write path of one delivered payload: the append
    # and the in-order ack that truncates it, one os.write each plus the
    # amortised compaction (the BENCH headline tracks the ack's cost
    # relative to the append's)
    from repro.capture.journal import CaptureJournal, journal_path_for

    journal = CaptureJournal(journal_path_for(str(tmp_path), "bench-client"), "bench-client")
    payload = encode_payload(RECORD_100)

    def append_ack():
        journal.ack(journal.append(payload))

    benchmark(append_ack)
    assert len(journal) == 0
    assert journal.anchor[0] == journal.head[0]
    journal.close()


def test_envelope_wrap_unwrap_100_attrs(benchmark):
    from repro.capture import unwrap_payload, wrap_payload

    payload = encode_payload(RECORD_100)

    def roundtrip():
        return unwrap_payload(wrap_payload("edge-dev/conf/edge/data", 12345,
                                           payload))

    client_id, seq, inner = benchmark(roundtrip)
    assert (client_id, seq) == ("edge-dev/conf/edge/data", 12345)
    assert inner == payload


# -- the record shapes that dominate the benchmark workloads -------------------


class _RecordingClient:
    """Just enough of a capture client for ``core/model.py`` to build its
    records: ``capture`` keeps the record instead of sending it."""

    now = 21.5

    def __init__(self):
        self.records = []

    def capture(self, record, groupable=True):
        self.records.append(record)
        return iter(())


def _task_records(count, attributes=100):
    """``(begin, end)`` records of ``count`` chained tasks, built by
    ``core/model.py`` the way the synthetic workload builds them."""
    from repro.core.model import Data, Task, Workflow

    client = _RecordingClient()
    workflow = Workflow(1, client)
    previous = []
    for i in range(1, count + 1):
        task = Task(f"0-{i}", workflow, transformation_id=0, dependencies=previous)
        for _ in task.begin([Data(f"in{i}", 1, {"in": [1] * attributes},
                                  derivations=[f"out{i - 1}"])]):
            pass
        for _ in task.end([Data(f"out{i}", 1, {"out": [2] * attributes},
                                derivations=[f"in{i}"])]):
            pass
        previous = [task.id]
    return client.records[0::2], client.records[1::2]


#: a fan-in payload: one task_begin record with 100 int attributes
TASK_BEGIN_100 = _task_records(2)[0][1]
#: an edge-grouped payload: one flush of a group of 50 task_end records
TASK_END_GROUP_50 = _task_records(50)[1]


def test_encode_task_begin_100_int_attrs(benchmark):
    assert TASK_BEGIN_100["kind"] == "task_begin"
    wire = benchmark(encode_payload, TASK_BEGIN_100)
    assert decode_payload(wire) == TASK_BEGIN_100


def test_decode_task_begin_100_int_attrs(benchmark):
    wire = encode_payload(TASK_BEGIN_100)
    assert benchmark(decode_payload, wire) == TASK_BEGIN_100


def test_encode_task_end_group_50(benchmark):
    assert [r["kind"] for r in TASK_END_GROUP_50] == ["task_end"] * 50
    wire = benchmark(encode_payload, TASK_END_GROUP_50)
    assert decode_payload(wire) == TASK_END_GROUP_50


def test_decode_task_end_group_50(benchmark):
    wire = encode_payload(TASK_END_GROUP_50)
    assert benchmark(decode_payload, wire) == TASK_END_GROUP_50


def test_encode_task_begin_unique_table(benchmark):
    # the table-prefix cache's miss path: a fresh task id each round
    # makes every string table new, so no section is ever reused
    record = dict(TASK_BEGIN_100)
    ids = (f"miss-{i}" for i in itertools.count())

    def encode_fresh():
        record["task_id"] = next(ids)
        return encode_payload(record)

    wire = benchmark(encode_fresh)
    assert decode_payload(wire) == record


def test_decode_task_begin_unique_table(benchmark):
    # the decoder's table-cache miss path: cycling through more distinct
    # tables than the cache holds, each decode parses its table afresh
    wires = [encode_payload({**TASK_BEGIN_100, "task_id": f"miss-{i}"})
             for i in range(2 * serialization._TABLE_CACHE_MAX)]
    pending = itertools.cycle(wires)
    value = benchmark(lambda: decode_payload(next(pending)))
    assert value["task_id"].startswith("miss-")
    assert {**value, "task_id": TASK_BEGIN_100["task_id"]} == TASK_BEGIN_100


def test_mqttsn_qos2_ack_frames_roundtrip(benchmark):
    # every QoS 2 publish costs one PUBREC, PUBREL and PUBCOMP each way
    # through the codec: build, encode and decode all three
    def roundtrip():
        return (pkt.decode(pkt.Pubrec(99).encode()),
                pkt.decode(pkt.Pubrel(99).encode()),
                pkt.decode(pkt.Pubcomp(99).encode()))

    rec, rel, comp = benchmark(roundtrip)
    assert (rec, rel, comp) == (pkt.Pubrec(99), pkt.Pubrel(99), pkt.Pubcomp(99))
