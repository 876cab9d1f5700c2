"""MQTT-SN v1.2 wire format.

Binary encode/decode for the subset of MQTT for Sensor Networks
(Stanford-Clark & Truong, IBM, 2013) that the RSMB broker and the
ProvLight client exercise: connection setup, topic registration,
publishing at QoS 0/1/2 with the exactly-once handshake
(PUBLISH / PUBREC / PUBREL / PUBCOMP), subscriptions, ping and
disconnect.

Every message encodes to real bytes — the byte counts the harness reports
for Fig. 6c come from these encoders plus the UDP/IP headers.

Framing: ``length`` (1 octet, or ``0x01`` + 2 octets when > 255) followed
by ``msgType`` and the variable part.  Integers are big-endian.
"""

from __future__ import annotations

import struct
from typing import Callable, ClassVar, Dict

__all__ = [
    "MqttSnError",
    "MalformedPacket",
    "MqttSnMessage",
    "Connect",
    "Connack",
    "Register",
    "Regack",
    "Publish",
    "Puback",
    "Pubrec",
    "Pubrel",
    "Pubcomp",
    "Subscribe",
    "Suback",
    "Pingreq",
    "Pingresp",
    "Disconnect",
    "encode",
    "decode",
    "RC_ACCEPTED",
    "RC_CONGESTION",
    "RC_INVALID_TOPIC",
    "RC_NOT_SUPPORTED",
]

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


class MqttSnError(Exception):
    """Base protocol error."""


class MalformedPacket(MqttSnError):
    """Bytes that do not decode to a valid MQTT-SN message."""


# One precompiled struct per frame shape.  A short frame is
# ``length | msgType | body`` with a one-octet length; a body that makes
# the frame longer than 255 octets takes the long form
# ``0x01 | length (2) | msgType | body``.
_FRAME_LONG = struct.Struct(">BHB")
_MSG_ID_FRAME = struct.Struct(">BBH")  # PUBREC / PUBREL / PUBCOMP, DISCONNECT
_ACK_FRAME = struct.Struct(">BBHHB")  # REGACK, PUBACK
_SUBACK_FRAME = struct.Struct(">BBBHHB")
_CONNECT_FRAME = struct.Struct(">BBBBH")
_REGISTER_FRAME = struct.Struct(">BBHH")
_SUBSCRIBE_FRAME = struct.Struct(">BBBH")
_PUBLISH_FRAME = struct.Struct(">BBBHH")
_PUBLISH_LONG_FRAME = struct.Struct(">BHBBHH")
_U16 = struct.Struct(">H")
_U16_U16 = struct.Struct(">HH")
_ACK_BODY = struct.Struct(">HHB")
_SUBACK_BODY = struct.Struct(">BHHB")
_PUBLISH_BODY = struct.Struct(">BHH")

#: a PUBLISH payload up to this size fits a short frame (7 header octets)
_PUBLISH_SHORT_MAX = 255 - 7

#: QoS -> flag bits; any other QoS is invalid
_QOS_FLAGS = {0: 0x00, 1: 0x20, 2: 0x40}


def _frame(msg_type: int, body: bytes) -> bytes:
    """``length | msgType | body`` in the short or the long form."""
    total = 2 + len(body)  # length octet + type octet + body
    if total <= 255:
        return bytes((total, msg_type)) + body
    return _FRAME_LONG.pack(0x01, 4 + len(body), msg_type) + body


def _qos_to_flags(qos: int) -> int:
    flags = _QOS_FLAGS.get(qos)
    if flags is None:
        raise ValueError(f"invalid QoS {qos}")
    return flags


def _text(data: bytes, start: int, what: str) -> str:
    """The UTF-8 string from ``start`` to the end of the frame."""
    try:
        return str(data[start:], "utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedPacket(f"{what} is not UTF-8: {exc}") from None


class MqttSnMessage:
    """Base class: every message encodes itself to one frame.

    A message is a plain record: its fields are ``_fields``, held in
    slots; its constructor takes them positionally or by name, in that
    order; and two messages are equal when their types and fields are.
    Each type encodes through one precompiled struct and parses from the
    frame's body offset with ``_parse(data, start)``.
    """

    __slots__ = ()
    #: the message's fields, in constructor order
    _fields: ClassVar[tuple] = ()

    MSG_TYPE: ClassVar[int] = 0

    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def wire_size(self) -> int:
        """Encoded size in bytes."""
        return len(self.encode())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._fields
        )

    __hash__ = None  # mutable (a retransmitted PUBLISH sets ``dup``)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Connect(MqttSnMessage):
    __slots__ = _fields = ("client_id", "duration", "clean_session")

    MSG_TYPE: ClassVar[int] = MT_CONNECT

    def __init__(self, client_id: str = "", duration: int = 60,
                 clean_session: bool = True):
        self.client_id = client_id
        self.duration = duration
        self.clean_session = clean_session

    def encode(self) -> bytes:
        cid = self.client_id.encode()
        if not 1 <= len(cid) <= 23:
            raise ValueError("client id must be 1..23 bytes")
        flags = FLAG_CLEAN if self.clean_session else 0
        return _CONNECT_FRAME.pack(
            6 + len(cid), MT_CONNECT, flags, 0x01, self.duration
        ) + cid

    @classmethod
    def _parse(cls, data: bytes, start: int) -> "Connect":
        if len(data) - start < 5:
            raise MalformedPacket("CONNECT too short")
        (duration,) = _U16.unpack_from(data, start + 2)
        return cls(
            _text(data, start + 4, "CONNECT client id"),
            duration,
            bool(data[start] & FLAG_CLEAN),
        )


class Connack(MqttSnMessage):
    __slots__ = _fields = ("return_code",)

    MSG_TYPE: ClassVar[int] = MT_CONNACK

    def __init__(self, return_code: int = RC_ACCEPTED):
        self.return_code = return_code

    def encode(self) -> bytes:
        return bytes((3, MT_CONNACK, self.return_code))

    @classmethod
    def _parse(cls, data: bytes, start: int) -> "Connack":
        if len(data) - start != 1:
            raise MalformedPacket("CONNACK length")
        return cls(data[start])


class Register(MqttSnMessage):
    __slots__ = _fields = ("topic_id", "msg_id", "topic_name")

    MSG_TYPE: ClassVar[int] = MT_REGISTER

    def __init__(self, topic_id: int = 0, msg_id: int = 0, topic_name: str = ""):
        self.topic_id = topic_id  # 0 when a client registers (broker assigns)
        self.msg_id = msg_id
        self.topic_name = topic_name

    def encode(self) -> bytes:
        name = self.topic_name.encode()
        if len(name) <= 255 - 6:
            return _REGISTER_FRAME.pack(
                6 + len(name), MT_REGISTER, self.topic_id, self.msg_id
            ) + name
        return _frame(MT_REGISTER, _U16_U16.pack(self.topic_id, self.msg_id) + name)

    @classmethod
    def _parse(cls, data: bytes, start: int) -> "Register":
        if len(data) - start < 5:
            raise MalformedPacket("REGISTER too short")
        topic_id, msg_id = _U16_U16.unpack_from(data, start)
        return cls(topic_id, msg_id, _text(data, start + 4, "REGISTER topic name"))


class _Ack(MqttSnMessage):
    """REGACK and PUBACK share a topicId | msgId | returnCode body."""

    __slots__ = _fields = ("topic_id", "msg_id", "return_code")

    def __init__(self, topic_id: int = 0, msg_id: int = 0,
                 return_code: int = RC_ACCEPTED):
        self.topic_id = topic_id
        self.msg_id = msg_id
        self.return_code = return_code

    def encode(self) -> bytes:
        return _ACK_FRAME.pack(7, self.MSG_TYPE, self.topic_id, self.msg_id,
                               self.return_code)

    @classmethod
    def _parse(cls, data: bytes, start: int):
        if len(data) - start != 5:
            raise MalformedPacket(f"{cls.__name__.upper()} length")
        return cls(*_ACK_BODY.unpack_from(data, start))


class Regack(_Ack):
    __slots__ = ()

    MSG_TYPE: ClassVar[int] = MT_REGACK


class Puback(_Ack):
    __slots__ = ()

    MSG_TYPE: ClassVar[int] = MT_PUBACK


class Publish(MqttSnMessage):
    __slots__ = _fields = ("topic_id", "msg_id", "payload", "qos", "dup", "retain")

    MSG_TYPE: ClassVar[int] = MT_PUBLISH

    def __init__(self, topic_id: int = 0, msg_id: int = 0, payload: bytes = b"",
                 qos: int = 0, dup: bool = False, retain: bool = False):
        self.topic_id = topic_id
        self.msg_id = msg_id
        self.payload = payload
        self.qos = qos
        self.dup = dup
        self.retain = retain

    def encode(self) -> bytes:
        flags = _qos_to_flags(self.qos)
        if self.dup:
            flags |= FLAG_DUP
        if self.retain:
            flags |= FLAG_RETAIN
        payload = self.payload
        if len(payload) <= _PUBLISH_SHORT_MAX:
            return _PUBLISH_FRAME.pack(
                7 + len(payload), MT_PUBLISH, flags, self.topic_id, self.msg_id
            ) + payload
        return _PUBLISH_LONG_FRAME.pack(
            0x01, 9 + len(payload), MT_PUBLISH, flags, self.topic_id, self.msg_id
        ) + payload

    @classmethod
    def _parse(cls, data: bytes, start: int) -> "Publish":
        if len(data) - start < 5:
            raise MalformedPacket("PUBLISH too short")
        flags, topic_id, msg_id = _PUBLISH_BODY.unpack_from(data, start)
        return cls(
            topic_id,
            msg_id,
            data[start + 5:],
            (flags & FLAG_QOS_MASK) >> 5,
            bool(flags & FLAG_DUP),
            bool(flags & FLAG_RETAIN),
        )


class _MsgIdOnly(MqttSnMessage):
    """PUBREC / PUBREL / PUBCOMP share a msgId-only body."""

    __slots__ = _fields = ("msg_id",)

    def __init__(self, msg_id: int = 0):
        self.msg_id = msg_id

    def encode(self) -> bytes:
        return _MSG_ID_FRAME.pack(4, self.MSG_TYPE, self.msg_id)

    @classmethod
    def _parse(cls, data: bytes, start: int):
        if len(data) - start != 2:
            raise MalformedPacket(f"{cls.__name__} length")
        return cls(_U16.unpack_from(data, start)[0])


class Pubrec(_MsgIdOnly):
    __slots__ = ()

    MSG_TYPE: ClassVar[int] = MT_PUBREC


class Pubrel(_MsgIdOnly):
    __slots__ = ()

    MSG_TYPE: ClassVar[int] = MT_PUBREL


class Pubcomp(_MsgIdOnly):
    __slots__ = ()

    MSG_TYPE: ClassVar[int] = MT_PUBCOMP


class Subscribe(MqttSnMessage):
    __slots__ = _fields = ("msg_id", "topic_name", "qos")

    MSG_TYPE: ClassVar[int] = MT_SUBSCRIBE

    def __init__(self, msg_id: int = 0, topic_name: str = "", qos: int = 0):
        self.msg_id = msg_id
        self.topic_name = topic_name
        self.qos = qos

    def encode(self) -> bytes:
        flags = _qos_to_flags(self.qos)
        name = self.topic_name.encode()
        if len(name) <= 255 - 5:
            return _SUBSCRIBE_FRAME.pack(
                5 + len(name), MT_SUBSCRIBE, flags, self.msg_id
            ) + name
        return _frame(MT_SUBSCRIBE, bytes((flags,)) + _U16.pack(self.msg_id) + name)

    @classmethod
    def _parse(cls, data: bytes, start: int) -> "Subscribe":
        if len(data) - start < 3:
            raise MalformedPacket("SUBSCRIBE too short")
        (msg_id,) = _U16.unpack_from(data, start + 1)
        return cls(
            msg_id,
            _text(data, start + 3, "SUBSCRIBE topic name"),
            (data[start] & FLAG_QOS_MASK) >> 5,
        )


class Suback(MqttSnMessage):
    __slots__ = _fields = ("topic_id", "msg_id", "return_code", "qos")

    MSG_TYPE: ClassVar[int] = MT_SUBACK

    def __init__(self, topic_id: int = 0, msg_id: int = 0,
                 return_code: int = RC_ACCEPTED, qos: int = 0):
        self.topic_id = topic_id
        self.msg_id = msg_id
        self.return_code = return_code
        self.qos = qos

    def encode(self) -> bytes:
        return _SUBACK_FRAME.pack(
            8, MT_SUBACK, _qos_to_flags(self.qos), self.topic_id, self.msg_id,
            self.return_code,
        )

    @classmethod
    def _parse(cls, data: bytes, start: int) -> "Suback":
        if len(data) - start != 6:
            raise MalformedPacket("SUBACK length")
        flags, topic_id, msg_id, rc = _SUBACK_BODY.unpack_from(data, start)
        return cls(topic_id, msg_id, rc, (flags & FLAG_QOS_MASK) >> 5)


class _Empty(MqttSnMessage):
    """PINGREQ / PINGRESP carry no body (and ignore one on decode)."""

    __slots__ = ()

    def encode(self) -> bytes:
        return bytes((2, self.MSG_TYPE))

    @classmethod
    def _parse(cls, data: bytes, start: int):
        return cls()


class Pingreq(_Empty):
    __slots__ = ()

    MSG_TYPE: ClassVar[int] = MT_PINGREQ


class Pingresp(_Empty):
    __slots__ = ()

    MSG_TYPE: ClassVar[int] = MT_PINGRESP


class Disconnect(MqttSnMessage):
    __slots__ = _fields = ("duration",)

    MSG_TYPE: ClassVar[int] = MT_DISCONNECT

    def __init__(self, duration: int = 0):
        self.duration = duration  # 0: no sleep

    def encode(self) -> bytes:
        if self.duration:
            return _MSG_ID_FRAME.pack(4, MT_DISCONNECT, self.duration)
        return bytes((2, MT_DISCONNECT))

    @classmethod
    def _parse(cls, data: bytes, start: int) -> "Disconnect":
        size = len(data) - start
        if size == 0:
            return cls()
        if size == 2:
            return cls(_U16.unpack_from(data, start)[0])
        raise MalformedPacket("DISCONNECT length")


#: msgType -> the parser of its body
_PARSERS: Dict[int, Callable[[bytes, int], MqttSnMessage]] = {
    cls.MSG_TYPE: cls._parse
    for cls in (
        Connect, Connack, Register, Regack, Publish, Puback, Pubrec, Pubrel,
        Pubcomp, Subscribe, Suback, Pingreq, Pingresp, Disconnect,
    )
}


def encode(message: MqttSnMessage) -> bytes:
    """Encode a message to wire bytes."""
    return message.encode()


def decode(data: bytes) -> MqttSnMessage:
    """Decode one MQTT-SN message from wire bytes.

    Raises :class:`MalformedPacket` for anything that is not one whole
    frame of a known type with a valid body.
    """
    size = len(data)
    if size < 2:
        raise MalformedPacket("packet shorter than minimal frame")
    if data[0] == 0x01:
        if size < 4:
            raise MalformedPacket("truncated long frame")
        expected = (data[1] << 8 | data[2]) - 4
        msg_type = data[3]
        start = 4
    else:
        expected = data[0] - 2
        msg_type = data[1]
        start = 2
    if size - start != expected:
        raise MalformedPacket(
            f"length field says {expected} body bytes, got {size - start}"
        )
    parse = _PARSERS.get(msg_type)
    if parse is None:
        raise MalformedPacket(f"unknown message type {msg_type:#x}")
    return parse(data, start)
