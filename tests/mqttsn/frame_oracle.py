"""The MQTT-SN frame codec as it was before its precompiled structs.

``repro.mqttsn.packets`` now encodes and decodes each message type
through one precompiled ``struct`` and builds messages positionally.  Its
frames must stay byte-identical, so this module keeps the previous
dataclass codec, frozen, as the reference
``tests/mqttsn/test_frame_oracle.py`` compares against.  Message classes
here are the oracle's own; only the exception classes are shared with
the program.

The one place the two differ on purpose: a CONNECT, REGISTER or
SUBSCRIBE whose client id or topic name is not UTF-8 made this decoder
raise ``UnicodeDecodeError``; the program raises ``MalformedPacket``.
Do not edit the bodies: a change here changes what the oracle pins.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Type

from repro.mqttsn.packets import MalformedPacket

__all__ = ["encode", "decode", "TYPES"]

# message type octets (spec Table 3)
MT_CONNECT = 0x04
MT_CONNACK = 0x05
MT_REGISTER = 0x0A
MT_REGACK = 0x0B
MT_PUBLISH = 0x0C
MT_PUBACK = 0x0D
MT_PUBCOMP = 0x0E
MT_PUBREC = 0x0F
MT_PUBREL = 0x10
MT_SUBSCRIBE = 0x12
MT_SUBACK = 0x13
MT_PINGREQ = 0x16
MT_PINGRESP = 0x17
MT_DISCONNECT = 0x18

# return codes
RC_ACCEPTED = 0x00
RC_CONGESTION = 0x01
RC_INVALID_TOPIC = 0x02
RC_NOT_SUPPORTED = 0x03

# flag bits (spec section 5.3.4)
FLAG_DUP = 0x80
FLAG_QOS_MASK = 0x60
FLAG_RETAIN = 0x10
FLAG_CLEAN = 0x04


#: preallocated ``length | msgType`` short-frame headers, indexed
#: ``[msg_type][total]`` — every QoS 2 publish sends four control packets
#: through :func:`_frame`, so the per-call ``bytes([total, msg_type])``
#: allocation was pure hot-path overhead
_SHORT_HEADERS = {
    msg_type: tuple(bytes((total, msg_type)) for total in range(256))
    for msg_type in (
        MT_CONNECT, MT_CONNACK, MT_REGISTER, MT_REGACK, MT_PUBLISH,
        MT_PUBACK, MT_PUBCOMP, MT_PUBREC, MT_PUBREL, MT_SUBSCRIBE,
        MT_SUBACK, MT_PINGREQ, MT_PINGRESP, MT_DISCONNECT,
    )
}

_pack_long_frame = struct.Struct(">BHB").pack
_pack_publish_head = struct.Struct(">BHH").pack


def _frame(msg_type: int, body: bytes) -> bytes:
    total = 2 + len(body)  # length octet + type octet + body
    if total <= 255:
        return _SHORT_HEADERS[msg_type][total] + body
    total = 4 + len(body)  # 3 length octets + type octet + body
    return _pack_long_frame(0x01, total, msg_type) + body


def _qos_to_flags(qos: int) -> int:
    if qos not in (0, 1, 2):
        raise ValueError(f"invalid QoS {qos}")
    return (qos << 5) & FLAG_QOS_MASK


def _flags_to_qos(flags: int) -> int:
    return (flags & FLAG_QOS_MASK) >> 5


@dataclass
class MqttSnMessage:
    """Base class: every message knows how to encode itself."""

    MSG_TYPE: ClassVar[int] = 0

    def encode(self) -> bytes:
        return _frame(self.MSG_TYPE, self._body())

    def _body(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def wire_size(self) -> int:
        """Encoded size in bytes."""
        return len(self.encode())


@dataclass
class Connect(MqttSnMessage):
    client_id: str = ""
    duration: int = 60
    clean_session: bool = True

    MSG_TYPE: ClassVar[int] = MT_CONNECT

    def _body(self) -> bytes:
        flags = FLAG_CLEAN if self.clean_session else 0
        cid = self.client_id.encode()
        if not 1 <= len(cid) <= 23:
            raise ValueError("client id must be 1..23 bytes")
        return bytes([flags, 0x01]) + struct.pack(">H", self.duration) + cid

    @classmethod
    def _parse(cls, body: bytes) -> "Connect":
        if len(body) < 5:
            raise MalformedPacket("CONNECT too short")
        flags, _proto = body[0], body[1]
        (duration,) = struct.unpack(">H", body[2:4])
        return cls(
            client_id=body[4:].decode(),
            duration=duration,
            clean_session=bool(flags & FLAG_CLEAN),
        )


@dataclass
class Connack(MqttSnMessage):
    return_code: int = RC_ACCEPTED

    MSG_TYPE: ClassVar[int] = MT_CONNACK

    def _body(self) -> bytes:
        return bytes([self.return_code])

    @classmethod
    def _parse(cls, body: bytes) -> "Connack":
        if len(body) != 1:
            raise MalformedPacket("CONNACK length")
        return cls(return_code=body[0])


@dataclass
class Register(MqttSnMessage):
    topic_id: int = 0  # 0 when client registers (broker assigns)
    msg_id: int = 0
    topic_name: str = ""

    MSG_TYPE: ClassVar[int] = MT_REGISTER

    def _body(self) -> bytes:
        return struct.pack(">HH", self.topic_id, self.msg_id) + self.topic_name.encode()

    @classmethod
    def _parse(cls, body: bytes) -> "Register":
        if len(body) < 5:
            raise MalformedPacket("REGISTER too short")
        topic_id, msg_id = struct.unpack(">HH", body[:4])
        return cls(topic_id=topic_id, msg_id=msg_id, topic_name=body[4:].decode())


@dataclass
class Regack(MqttSnMessage):
    topic_id: int = 0
    msg_id: int = 0
    return_code: int = RC_ACCEPTED

    MSG_TYPE: ClassVar[int] = MT_REGACK

    def _body(self) -> bytes:
        return struct.pack(">HHB", self.topic_id, self.msg_id, self.return_code)

    @classmethod
    def _parse(cls, body: bytes) -> "Regack":
        if len(body) != 5:
            raise MalformedPacket("REGACK length")
        topic_id, msg_id, rc = struct.unpack(">HHB", body)
        return cls(topic_id=topic_id, msg_id=msg_id, return_code=rc)


@dataclass
class Publish(MqttSnMessage):
    topic_id: int = 0
    msg_id: int = 0
    payload: bytes = b""
    qos: int = 0
    dup: bool = False
    retain: bool = False

    MSG_TYPE: ClassVar[int] = MT_PUBLISH

    def _body(self) -> bytes:
        flags = _qos_to_flags(self.qos)
        if self.dup:
            flags |= FLAG_DUP
        if self.retain:
            flags |= FLAG_RETAIN
        # one pack + one concat instead of three intermediate allocations
        return _pack_publish_head(flags, self.topic_id, self.msg_id) + self.payload

    @classmethod
    def _parse(cls, body: bytes) -> "Publish":
        if len(body) < 5:
            raise MalformedPacket("PUBLISH too short")
        flags = body[0]
        topic_id, msg_id = struct.unpack(">HH", body[1:5])
        return cls(
            topic_id=topic_id,
            msg_id=msg_id,
            payload=body[5:],
            qos=_flags_to_qos(flags),
            dup=bool(flags & FLAG_DUP),
            retain=bool(flags & FLAG_RETAIN),
        )


def _make_msgid_only(name: str, msg_type: int):
    """PUBREC / PUBREL / PUBCOMP share a msgId-only body."""

    @dataclass
    class _MsgIdOnly(MqttSnMessage):
        msg_id: int = 0

        MSG_TYPE: ClassVar[int] = msg_type

        def _body(self) -> bytes:
            return struct.pack(">H", self.msg_id)

        @classmethod
        def _parse(cls, body: bytes):
            if len(body) != 2:
                raise MalformedPacket(f"{name} length")
            return cls(msg_id=struct.unpack(">H", body)[0])

    _MsgIdOnly.__name__ = _MsgIdOnly.__qualname__ = name
    return _MsgIdOnly


Pubrec = _make_msgid_only("Pubrec", MT_PUBREC)
Pubrel = _make_msgid_only("Pubrel", MT_PUBREL)
Pubcomp = _make_msgid_only("Pubcomp", MT_PUBCOMP)


@dataclass
class Puback(MqttSnMessage):
    topic_id: int = 0
    msg_id: int = 0
    return_code: int = RC_ACCEPTED

    MSG_TYPE: ClassVar[int] = MT_PUBACK

    def _body(self) -> bytes:
        return struct.pack(">HHB", self.topic_id, self.msg_id, self.return_code)

    @classmethod
    def _parse(cls, body: bytes) -> "Puback":
        if len(body) != 5:
            raise MalformedPacket("PUBACK length")
        topic_id, msg_id, rc = struct.unpack(">HHB", body)
        return cls(topic_id=topic_id, msg_id=msg_id, return_code=rc)


@dataclass
class Subscribe(MqttSnMessage):
    msg_id: int = 0
    topic_name: str = ""
    qos: int = 0

    MSG_TYPE: ClassVar[int] = MT_SUBSCRIBE

    def _body(self) -> bytes:
        return bytes([_qos_to_flags(self.qos)]) + struct.pack(">H", self.msg_id) + self.topic_name.encode()

    @classmethod
    def _parse(cls, body: bytes) -> "Subscribe":
        if len(body) < 3:
            raise MalformedPacket("SUBSCRIBE too short")
        flags = body[0]
        (msg_id,) = struct.unpack(">H", body[1:3])
        return cls(msg_id=msg_id, topic_name=body[3:].decode(), qos=_flags_to_qos(flags))


@dataclass
class Suback(MqttSnMessage):
    topic_id: int = 0
    msg_id: int = 0
    return_code: int = RC_ACCEPTED
    qos: int = 0

    MSG_TYPE: ClassVar[int] = MT_SUBACK

    def _body(self) -> bytes:
        return (
            bytes([_qos_to_flags(self.qos)])
            + struct.pack(">HHB", self.topic_id, self.msg_id, self.return_code)
        )

    @classmethod
    def _parse(cls, body: bytes) -> "Suback":
        if len(body) != 6:
            raise MalformedPacket("SUBACK length")
        flags = body[0]
        topic_id, msg_id, rc = struct.unpack(">HHB", body[1:])
        return cls(topic_id=topic_id, msg_id=msg_id, return_code=rc, qos=_flags_to_qos(flags))


@dataclass
class Pingreq(MqttSnMessage):
    MSG_TYPE: ClassVar[int] = MT_PINGREQ

    def _body(self) -> bytes:
        return b""

    @classmethod
    def _parse(cls, body: bytes) -> "Pingreq":
        return cls()


@dataclass
class Pingresp(MqttSnMessage):
    MSG_TYPE: ClassVar[int] = MT_PINGRESP

    def _body(self) -> bytes:
        return b""

    @classmethod
    def _parse(cls, body: bytes) -> "Pingresp":
        return cls()


@dataclass
class Disconnect(MqttSnMessage):
    duration: int = 0  # 0: no sleep

    MSG_TYPE: ClassVar[int] = MT_DISCONNECT

    def _body(self) -> bytes:
        if self.duration:
            return struct.pack(">H", self.duration)
        return b""

    @classmethod
    def _parse(cls, body: bytes) -> "Disconnect":
        if len(body) == 0:
            return cls()
        if len(body) == 2:
            return cls(duration=struct.unpack(">H", body)[0])
        raise MalformedPacket("DISCONNECT length")


TYPES: Dict[int, Type[MqttSnMessage]] = {
    MT_CONNECT: Connect,
    MT_CONNACK: Connack,
    MT_REGISTER: Register,
    MT_REGACK: Regack,
    MT_PUBLISH: Publish,
    MT_PUBACK: Puback,
    MT_PUBREC: Pubrec,
    MT_PUBREL: Pubrel,
    MT_PUBCOMP: Pubcomp,
    MT_SUBSCRIBE: Subscribe,
    MT_SUBACK: Suback,
    MT_PINGREQ: Pingreq,
    MT_PINGRESP: Pingresp,
    MT_DISCONNECT: Disconnect,
}


def encode(message: MqttSnMessage) -> bytes:
    """Encode a message to wire bytes."""
    return message.encode()


def decode(data: bytes) -> MqttSnMessage:
    """Decode one MQTT-SN message from wire bytes."""
    if len(data) < 2:
        raise MalformedPacket("packet shorter than minimal frame")
    if data[0] == 0x01:
        if len(data) < 4:
            raise MalformedPacket("truncated long frame")
        (length,) = struct.unpack(">H", data[1:3])
        msg_type, body = data[3], data[4:]
        expected = length - 4
    else:
        length = data[0]
        msg_type, body = data[1], data[2:]
        expected = length - 2
    if len(body) != expected:
        raise MalformedPacket(
            f"length field says {expected} body bytes, got {len(body)}"
        )
    cls = TYPES.get(msg_type)
    if cls is None:
        raise MalformedPacket(f"unknown message type {msg_type:#x}")
    return cls._parse(body)
