"""The MQTT-SN frame codec against its frozen previous implementation.

``tests/mqttsn/frame_oracle.py`` keeps the dataclass codec as it was
before the precompiled structs.  Every message type must encode to the
oracle's bytes and decode to an equal message, short and long frames
alike.  On frames mutated by truncation, byte flips and splices,
``decode`` raises only ``MalformedPacket`` and decodes what the oracle
decodes, with one intended difference: where a CONNECT, REGISTER or
SUBSCRIBE carries a client id or topic name that is not UTF-8, the
oracle let ``UnicodeDecodeError`` out and ``decode`` raises
``MalformedPacket``.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mqttsn import packets as pkt

from . import frame_oracle as oracle

u16 = st.integers(0, 0xFFFF)
u8 = st.integers(0, 0xFF)
qos = st.integers(0, 2)
names = st.text(max_size=12) | st.text(min_size=250, max_size=300)
client_ids = st.text(min_size=1, max_size=23).filter(lambda s: 1 <= len(s.encode()) <= 23)

messages = st.one_of(
    st.builds(pkt.Connect, client_ids, u16, st.booleans()),
    st.builds(pkt.Connack, u8),
    st.builds(pkt.Register, u16, u16, names.filter(bool)),
    st.builds(pkt.Regack, u16, u16, u8),
    st.builds(pkt.Publish, u16, u16, st.binary(max_size=300), qos,
              st.booleans(), st.booleans()),
    st.builds(pkt.Puback, u16, u16, u8),
    st.builds(pkt.Pubrec, u16),
    st.builds(pkt.Pubrel, u16),
    st.builds(pkt.Pubcomp, u16),
    st.builds(pkt.Subscribe, u16, names, qos),
    st.builds(pkt.Suback, u16, u16, u8, qos),
    st.builds(pkt.Pingreq),
    st.builds(pkt.Pingresp),
    st.builds(pkt.Disconnect, u16),
)


def fields(message):
    """``(type name, field values)`` of a program or an oracle message."""
    if isinstance(message, pkt.MqttSnMessage):
        names_ = message._fields
    else:
        names_ = [field.name for field in dataclasses.fields(message)]
    return type(message).__name__, tuple(getattr(message, f) for f in names_)


def as_oracle(message):
    cls = oracle.TYPES[message.MSG_TYPE]
    return cls(**{name: getattr(message, name) for name in message._fields})


def test_every_message_type_is_covered():
    assert {cls.MSG_TYPE for cls in oracle.TYPES.values()} == set(pkt._PARSERS)


@given(messages)
@settings(max_examples=400, deadline=None)
@example(pkt.Publish(1, 2, b"x" * 248, 2))  # the largest short frame
@example(pkt.Publish(1, 2, b"x" * 249, 2))  # the smallest long frame
@example(pkt.Register(1, 2, "t" * 249))
@example(pkt.Register(1, 2, "t" * 250))
@example(pkt.Subscribe(1, "t" * 250, 1))
@example(pkt.Subscribe(1, "t" * 251, 1))
def test_frames_match_the_frozen_codec(message):
    wire = as_oracle(message).encode()
    assert message.encode() == wire
    assert pkt.encode(message) == wire
    assert message.wire_size == len(wire)
    decoded = pkt.decode(wire)
    assert decoded == message
    assert fields(decoded) == fields(oracle.decode(wire))


@st.composite
def mutated_frames(draw):
    wire = draw(messages).encode()
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return wire[: draw(st.integers(0, len(wire) - 1))]
    data = bytearray(wire)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 6)))
    return bytes(data[:start]) + draw(st.binary(max_size=6)) + bytes(data[end:])


def outcome(decode, data):
    try:
        return "ok", fields(decode(data))
    except pkt.MalformedPacket:
        return "error", pkt.MalformedPacket


@given(mutated_frames())
@settings(max_examples=600, deadline=None)
@example(bytes((7, pkt.MT_REGISTER, 0, 0, 0, 1, 0xFF)))
def test_mutated_frames_decode_like_the_frozen_codec(data):
    got = outcome(pkt.decode, data)  # MalformedPacket is the only error
    try:
        expected = outcome(oracle.decode, data)
    except UnicodeDecodeError:
        # the one intended difference: a name that is not UTF-8
        assert data[1 if data[0] != 0x01 else 3] in (
            pkt.MT_CONNECT, pkt.MT_REGISTER, pkt.MT_SUBSCRIBE
        )
        assert got == ("error", pkt.MalformedPacket)
        return
    assert got == expected
