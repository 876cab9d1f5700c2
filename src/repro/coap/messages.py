"""CoAP (RFC 7252) wire format — the subset a capture transport needs.

The paper's Section III lists CoAP next to MQTT-SN among the IoT-grade
protocols the baselines ignore; this package implements enough of CoAP
to run ProvLight's capture over it and compare the two transports.

Supported here: the 4-byte fixed header (version/type/token length, code,
message id), tokens, delta-encoded Uri-Path and Content-Format options,
the payload marker, and the four message types (CON/NON/ACK/RST) with
piggybacked responses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "CoapError",
    "CoapMessage",
    "TYPE_CON",
    "TYPE_NON",
    "TYPE_ACK",
    "TYPE_RST",
    "CODE_EMPTY",
    "CODE_POST",
    "CODE_CREATED",
    "CODE_CHANGED",
    "CODE_BAD_REQUEST",
    "CODE_NOT_FOUND",
    "CODE_SERVICE_UNAVAILABLE",
    "code_str",
]

VERSION = 1

TYPE_CON = 0
TYPE_NON = 1
TYPE_ACK = 2
TYPE_RST = 3

# codes are class.detail packed as (class << 5) | detail
CODE_EMPTY = 0x00
CODE_POST = 0x02            # 0.02
CODE_CREATED = 0x41         # 2.01
CODE_CHANGED = 0x44         # 2.04
CODE_BAD_REQUEST = 0x80     # 4.00
CODE_NOT_FOUND = 0x84       # 4.04
CODE_SERVICE_UNAVAILABLE = 0xA3  # 5.03

OPT_URI_PATH = 11
OPT_CONTENT_FORMAT = 12

PAYLOAD_MARKER = 0xFF


class CoapError(ValueError):
    """Malformed CoAP message."""


def code_str(code: int) -> str:
    """Render a code as the familiar ``c.dd`` notation."""
    return f"{code >> 5}.{code & 0x1F:02d}"


def _encode_option_parts(value: int) -> Tuple[int, bytes]:
    """Nibble + extended bytes for an option delta or length."""
    if value < 13:
        return value, b""
    if value < 269:
        return 13, bytes([value - 13])
    if value < 65805:
        return 14, struct.pack(">H", value - 269)
    raise CoapError(f"option delta/length too large: {value}")


def _decode_option_part(nibble: int, data: bytes, pos: int) -> Tuple[int, int]:
    if nibble < 13:
        return nibble, pos
    if nibble == 13:
        if pos >= len(data):
            raise CoapError("truncated option extension")
        return data[pos] + 13, pos + 1
    if nibble == 14:
        if pos + 2 > len(data):
            raise CoapError("truncated option extension")
        return struct.unpack(">H", data[pos:pos + 2])[0] + 269, pos + 2
    raise CoapError("reserved option nibble 15")


@dataclass
class CoapMessage:
    """One CoAP message."""

    mtype: int = TYPE_CON
    code: int = CODE_EMPTY
    message_id: int = 0
    token: bytes = b""
    uri_path: List[str] = field(default_factory=list)
    content_format: Optional[int] = None
    payload: bytes = b""

    # -- encoding ---------------------------------------------------------
    def encode(self) -> bytes:
        if not 0 <= self.mtype <= 3:
            raise CoapError(f"invalid type {self.mtype}")
        if len(self.token) > 8:
            raise CoapError("token longer than 8 bytes")
        out = bytearray()
        out.append((VERSION << 6) | (self.mtype << 4) | len(self.token))
        out.append(self.code)
        out += struct.pack(">H", self.message_id)
        out += self.token

        # options must be emitted in ascending option-number order
        options: List[Tuple[int, bytes]] = []
        for segment in self.uri_path:
            options.append((OPT_URI_PATH, segment.encode()))
        if self.content_format is not None:
            options.append((OPT_CONTENT_FORMAT,
                            struct.pack(">H", self.content_format).lstrip(b"\x00")))
        options.sort(key=lambda kv: kv[0])
        last = 0
        for number, value in options:
            delta_nibble, delta_ext = _encode_option_parts(number - last)
            len_nibble, len_ext = _encode_option_parts(len(value))
            out.append((delta_nibble << 4) | len_nibble)
            out += delta_ext + len_ext + value
            last = number

        if self.payload:
            out.append(PAYLOAD_MARKER)
            out += self.payload
        return bytes(out)

    @property
    def wire_size(self) -> int:
        return len(self.encode())

    # -- decoding -----------------------------------------------------------
    @classmethod
    def decode(cls, data: bytes) -> "CoapMessage":
        if len(data) < 4:
            raise CoapError("message shorter than the fixed header")
        version = data[0] >> 6
        if version != VERSION:
            raise CoapError(f"unsupported version {version}")
        mtype = (data[0] >> 4) & 0x03
        tkl = data[0] & 0x0F
        if tkl > 8:
            raise CoapError(f"invalid token length {tkl}")
        code = data[1]
        (message_id,) = struct.unpack(">H", data[2:4])
        pos = 4
        if pos + tkl > len(data):
            raise CoapError("truncated token")
        token = data[pos:pos + tkl]
        pos += tkl

        uri_path: List[str] = []
        content_format: Optional[int] = None
        number = 0
        while pos < len(data) and data[pos] != PAYLOAD_MARKER:
            byte = data[pos]
            pos += 1
            delta, pos = _decode_option_part(byte >> 4, data, pos)
            length, pos = _decode_option_part(byte & 0x0F, data, pos)
            if pos + length > len(data):
                raise CoapError("truncated option value")
            value = data[pos:pos + length]
            pos += length
            number += delta
            if number == OPT_URI_PATH:
                try:
                    uri_path.append(value.decode())
                except UnicodeDecodeError:
                    raise CoapError("Uri-Path option is not valid UTF-8") from None
            elif number == OPT_CONTENT_FORMAT:
                content_format = int.from_bytes(value, "big") if value else 0
            # unknown options: elective ones are skipped silently

        payload = b""
        if pos < len(data):
            if data[pos] != PAYLOAD_MARKER:
                raise CoapError("garbage where payload marker expected")
            payload = data[pos + 1:]
            if not payload:
                raise CoapError("payload marker with empty payload")
        return cls(
            mtype=mtype, code=code, message_id=message_id, token=token,
            uri_path=uri_path, content_format=content_format, payload=payload,
        )

    def __repr__(self) -> str:
        path = "/" + "/".join(self.uri_path) if self.uri_path else ""
        return (
            f"<CoAP {('CON', 'NON', 'ACK', 'RST')[self.mtype]} "
            f"{code_str(self.code)} mid={self.message_id}{path} "
            f"{len(self.payload)}B>"
        )
