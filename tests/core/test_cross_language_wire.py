"""Cross-language wire compatibility (paper future work: C/C++ clients).

The ProvLight wire format is deliberately language-agnostic: fixed
little-endian floats, LEB128-style varints, one-octet type tags, explicit
framing.  These tests act as a *foreign* client: they craft payload bytes
and MQTT-SN datagrams by hand — exactly the octets a C client would emit
— and verify the Python broker/translator pipeline accepts them.
"""

import struct
import zlib

import pytest

from repro.core import decode_payload, encode_payload, encode_value, to_dfanalyzer
from repro.core.translator import records_from_payload


def hand_encoded_record() -> bytes:
    """Byte-for-byte construction of a ProvLight record, no Python codec.

    Record: {"kind": "task_end", "workflow_id": 1, "task_id": 7,
             "time": 2.5, "status": "finished", "dependencies": [],
             "data": []}
    """

    def varint(n: int) -> bytes:
        out = bytearray()
        while True:
            b = n & 0x7F
            n >>= 7
            if n:
                out.append(b | 0x80)
            else:
                out.append(b)
                return bytes(out)

    def zigzag(n: int) -> int:
        return (n << 1) ^ (n >> 63) if n >= 0 else ((-n) << 1) - 1

    def enc_str(s: str) -> bytes:
        raw = s.encode()
        return b"\x05" + varint(len(raw)) + raw

    def enc_int(n: int) -> bytes:
        return b"\x03" + varint(zigzag(n))

    def enc_float(x: float) -> bytes:
        return b"\x04" + struct.pack("<d", x)

    def enc_list(items: list) -> bytes:
        return b"\x07" + varint(len(items)) + b"".join(items)

    body = bytearray()
    body += b"\x08" + bytes([7])  # dict with 7 entries
    body += enc_str("kind") + enc_str("task_end")
    body += enc_str("workflow_id") + enc_int(1)
    body += enc_str("task_id") + enc_int(7)
    body += enc_str("time") + enc_float(2.5)
    body += enc_str("status") + enc_str("finished")
    body += enc_str("dependencies") + enc_list([])
    body += enc_str("data") + enc_list([])
    # frame: magic | version | flags(0: uncompressed)
    return b"PL" + bytes([1, 0]) + bytes(body)


EXPECTED = {
    "kind": "task_end", "workflow_id": 1, "task_id": 7, "time": 2.5,
    "status": "finished", "dependencies": [], "data": [],
}


def hand_encoded_record_v2() -> bytes:
    """Byte-for-byte v2 frame for the same record: string table + refs.

    v2 body layout: varint table byte-length | varint count | count x
    (varint len + utf-8) | value, where strings are T_STRREF (0x09)
    varint indexes into the table.
    """

    def varint(n: int) -> bytes:
        out = bytearray()
        while True:
            b = n & 0x7F
            n >>= 7
            if n:
                out.append(b | 0x80)
            else:
                out.append(b)
                return bytes(out)

    strings = ["kind", "task_end", "workflow_id", "task_id", "time",
               "status", "finished", "dependencies", "data"]
    table = bytearray(varint(len(strings)))
    for s in strings:
        raw = s.encode()
        table += varint(len(raw)) + raw

    def ref(s: str) -> bytes:
        return b"\x09" + varint(strings.index(s))

    def enc_int(n: int) -> bytes:
        z = (n << 1) if n >= 0 else ((-n) << 1) - 1
        return b"\x03" + varint(z)

    value = bytearray()
    value += b"\x08" + bytes([7])  # dict with 7 entries
    value += ref("kind") + ref("task_end")
    value += ref("workflow_id") + enc_int(1)
    value += ref("task_id") + enc_int(7)
    value += ref("time") + b"\x04" + struct.pack("<d", 2.5)
    value += ref("status") + ref("finished")
    value += ref("dependencies") + b"\x07\x00"  # empty list
    value += ref("data") + b"\x07\x00"
    body = varint(len(table)) + bytes(table) + bytes(value)
    return b"PL" + bytes([2, 0]) + body


def test_hand_encoded_payload_decodes():
    assert decode_payload(hand_encoded_record()) == EXPECTED


def test_hand_encoded_matches_python_encoder():
    # both encoders are canonical for the same key order (v1 frame)
    assert hand_encoded_record() == encode_payload(EXPECTED, compress=False, version=1)


def test_hand_encoded_v2_payload_decodes():
    assert decode_payload(hand_encoded_record_v2()) == EXPECTED


def test_hand_encoded_v2_matches_python_encoder():
    # the v2 encoder is canonical too: same table order (first use), same refs
    assert hand_encoded_record_v2() == encode_payload(EXPECTED, compress=False)


def test_v1_and_v2_frames_decode_identically():
    assert decode_payload(hand_encoded_record()) == decode_payload(hand_encoded_record_v2())


def test_hand_compressed_frame_decodes():
    raw = encode_value(EXPECTED)
    framed = b"PL" + bytes([1, 1]) + zlib.compress(raw)  # flag 1: compressed
    assert decode_payload(framed) == EXPECTED


def test_hand_encoded_record_translates():
    records = records_from_payload(hand_encoded_record())
    translated = to_dfanalyzer(records)
    assert translated[0]["task_id"] == 7
    assert translated[0]["status"] == "FINISHED"


def test_foreign_client_through_broker_and_translator():
    """A 'C client': raw MQTT-SN datagrams straight onto the UDP socket."""
    from repro.core import CallableBackend, ProvLightServer
    from repro.mqttsn import packets as pkt
    from repro.net import Network
    from repro.simkernel import Environment

    env = Environment()
    net = Network(env, seed=1)
    net.add_host("edge")
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    sink = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
    sock = net.hosts["edge"].udp_socket()
    broker = ("cloud", 1883)

    def foreign_client(env):
        yield from server.pool.attach("c/edge")
        # CONNECT with a hand-built frame: len|0x04|flags|proto|duration|id
        sock.sendto(bytes([12, 0x04, 0x04, 0x01, 0, 60]) + b"c-edge", broker)
        data, _ = yield sock.get()  # CONNACK
        assert pkt.decode(data) == pkt.Connack(return_code=0)
        # REGISTER topic "c/edge"
        sock.sendto(pkt.Register(topic_id=0, msg_id=1, topic_name="c/edge").encode(), broker)
        data, _ = yield sock.get()
        regack = pkt.decode(data)
        assert isinstance(regack, pkt.Regack)
        # PUBLISH qos1 with the hand-encoded provenance payload
        publish = pkt.Publish(topic_id=regack.topic_id, msg_id=2,
                              payload=hand_encoded_record(), qos=1)
        sock.sendto(publish.encode(), broker)
        data, _ = yield sock.get()  # PUBACK
        assert isinstance(pkt.decode(data), pkt.Puback)
        yield env.timeout(5)

    env.process(foreign_client(env))
    env.run()
    assert len(sink) == 1
    assert sink[0]["task_id"] == 7


def test_varint_boundaries_roundtrip():
    for n in (0, 1, 127, 128, 255, 16383, 16384, 2**32, -1, -128, -(2**40)):
        assert decode_payload(encode_payload(n, compress=False)) == n
