"""ProvLight binary wire format: compact type-tagged encoding + zlib.

Design goals from the paper (Table VI "provenance data representation &
payload compression"):

* much smaller than the baselines' JSON (ints/floats in binary, no field
  name repetition inflation);
* cheap to encode on a 600 MHz ARM core;
* compressed with a general-purpose codec before transmission —
  the paper measured ~1 ms for a 100-attribute payload on the device;
* language-agnostic framing (fixed little-endian layout, varints), which
  is the paper's stated future-work path to C/C++ capture clients.

Frame layout (both versions)::

    magic "PL" | version (1) | flags (1) | body...

flag bit 0: body is zlib-compressed; flag bit 1: body is encrypted
(encrypt-then-MAC, applied *after* compression).  Compression is skipped
when it does not pay for itself (tiny status messages) and — since v2 —
is not even attempted below :data:`MIN_COMPRESS_SIZE` bytes, so small
records never pay for a wasted ``zlib.compress`` call.

Version 1 body: one value in the type-tagged encoding, strings inline.

Version 2 body: a *string table* followed by one value.  Every string —
dict keys and string values alike — is stored once in the table and
referenced from the value by a varint index (tag ``T_STRREF``).  Field
names like ``"attributes"`` or ``"workflow_id"`` repeat in every record,
so interning compounds across grouped payloads (the paper's Tables
III/VIII path).  See ``docs/wire-format.md`` for the full layout.

:func:`encode_payload` emits v2 by default; :func:`decode_payload`
transparently accepts both versions so old captures and foreign v1
clients keep working.  :func:`encode_value`/:func:`decode_value` remain
the raw v1 value codec (canonical bytes unchanged from the seed
implementation).
"""

from __future__ import annotations

import struct
import zlib
from operator import countOf
from typing import Any

__all__ = [
    "CodecError",
    "encode_value",
    "decode_value",
    "encode_payload",
    "decode_payload",
    "VERSION",
    "VERSION_1",
    "VERSION_2",
    "MIN_COMPRESS_SIZE",
]

MAGIC = b"PL"
VERSION_1 = 1
VERSION_2 = 2
#: default wire version emitted by :func:`encode_payload`
VERSION = VERSION_2
FLAG_COMPRESSED = 0x01
FLAG_ENCRYPTED = 0x02

# type tags
T_NONE = 0x00
T_FALSE = 0x01
T_TRUE = 0x02
T_INT = 0x03
T_FLOAT = 0x04
T_STR = 0x05
T_BYTES = 0x06
T_LIST = 0x07
T_DICT = 0x08
#: v2 only: varint index into the payload's string table
T_STRREF = 0x09
#: v2 only: homogeneous list of ints in 0..255, stored as raw octets
T_U8ARR = 0x0A
#: v2 only: homogeneous list of ints, stored as zigzag varints (no tags)
T_INTARR = 0x0B
#: v2 only: homogeneous list of floats, stored as packed little-endian f64
T_F64ARR = 0x0C

#: frame header size (magic + version + flags)
HEADER_SIZE = 4

#: bodies smaller than this skip the compress-and-compare attempt
#: entirely — zlib cannot win on them and the attempt itself costs more
#: than the whole encode
MIN_COMPRESS_SIZE = 64

#: largest zigzag value a 64-bit decoder can represent
_U64_MAX = (1 << 64) - 1

_unpack_float = struct.Struct("<d").unpack_from
#: ``T_FLOAT`` and its 8 bytes in one call
_pack_tagged_float = struct.Struct("<Bd").pack

#: cached Struct objects for packed f64 arrays, keyed by element count
_F64_STRUCTS: dict = {}


def _f64_struct(count: int) -> struct.Struct:
    cached = _F64_STRUCTS.get(count)
    if cached is None:
        cached = _F64_STRUCTS[count] = struct.Struct(f"<{count}d")
        if len(_F64_STRUCTS) > 1024:
            _F64_STRUCTS.clear()
            _F64_STRUCTS[count] = cached
    return cached

#: precomputed frame headers per (version, flags) — satellite of the
#: hot-path issue: no per-record ``MAGIC + bytes([VERSION, flags])``
_HEADERS = {
    (version, flags): MAGIC + bytes((version, flags))
    for version in (VERSION_1, VERSION_2)
    for flags in range(4)
}


class CodecError(ValueError):
    """Encoding/decoding failure."""


# -- varints ------------------------------------------------------------------


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > _U64_MAX:
                # a 10-octet varint can carry up to 70 bits; the wire
                # contract (and any C decoder) is u64, and the encoder
                # refuses to emit more — mirror that on decode
                raise CodecError("varint exceeds the 64-bit wire range")
            return result, pos
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


# -- v1 value encoding --------------------------------------------------------
#
# Kept byte-for-byte identical to the seed implementation: these bytes are
# the cross-language reference (tests/core/test_cross_language_wire.py)
# and the baseline the v2 fast path is benchmarked against.


def _encode_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(T_NONE)
    elif value is True:
        out.append(T_TRUE)
    elif value is False:
        out.append(T_FALSE)
    elif isinstance(value, int):
        z = _zigzag(value)
        if z > _U64_MAX:
            # the decoder (and any C implementation of the wire contract)
            # reads u64 varints; emitting more would produce undecodable
            # bytes, so fail at encode time like the v2 path does
            raise CodecError(f"integer {value} exceeds the 64-bit wire range")
        out.append(T_INT)
        _write_uvarint(out, z)
    elif isinstance(value, float):
        out.append(T_FLOAT)
        out.extend(struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(T_STR)
        _write_uvarint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(T_BYTES)
        _write_uvarint(out, len(value))
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.append(T_LIST)
        _write_uvarint(out, len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(T_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {type(key).__name__}")
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        raise CodecError(f"unsupported type {type(value).__name__}")


# -- v2 value encoding --------------------------------------------------------


def _encode_v2_into(out: bytearray, value: Any, index: dict, table: list) -> None:
    """Single-pass v2 body encoder.

    Strings go through the ``index``/``table`` intern pair and are emitted
    as ``T_STRREF`` + varint.  Dict values and list items that are
    strings, ints, floats or lists of up to three such items are written
    in the caller's loop, ints in 0..63 without the zigzag and range
    check; only nested dicts, typed arrays and rarer types recurse.  This
    loop bounds how many simulated devices a scalability run can drive.
    """
    append = out.append
    t = type(value)
    if t is dict:
        append(T_DICT)
        n = len(value)
        while n > 0x7F:
            append(n & 0x7F | 0x80)
            n >>= 7
        append(n)
        index_get = index.get
        for key, item in value.items():
            if type(key) is not str:
                if not isinstance(key, str):
                    raise CodecError(
                        f"dict keys must be str, got {type(key).__name__}"
                    )
                key = str(key)
            i = index_get(key)
            if i is None:
                index[key] = i = len(table)
                table.append(key)
            append(T_STRREF)
            while i > 0x7F:
                append(i & 0x7F | 0x80)
                i >>= 7
            append(i)
            ti = type(item)
            if ti is str:
                i = index_get(item)
                if i is None:
                    index[item] = i = len(table)
                    table.append(item)
                append(T_STRREF)
                while i > 0x7F:
                    append(i & 0x7F | 0x80)
                    i >>= 7
                append(i)
            elif ti is int:
                if 0 <= item < 0x40:
                    append(T_INT)
                    append(item << 1)
                else:
                    _encode_int(out, item)
            elif ti is float:
                out += _pack_tagged_float(T_FLOAT, item)
            elif (ti is list or ti is tuple) and len(item) <= 3:
                _encode_list(out, item, index, table)
            else:
                _encode_v2_into(out, item, index, table)
    elif t is list or t is tuple:
        n = len(value)
        if n <= 3:  # too short for the typed arrays
            _encode_list(out, value, index, table)
            return
        # columnar fast path: attribute arrays are almost always
        # homogeneous numbers, which pack/unpack in a single C call
        kind = type(value[0])
        if (kind is int or kind is float) and countOf(map(type, value), kind) == n:
            if kind is int:
                try:
                    raw = bytes(value)  # succeeds iff every item is 0..255
                except (ValueError, TypeError, OverflowError):
                    raw = None
                if raw is not None:
                    append(T_U8ARR)
                    while n > 0x7F:
                        append(n & 0x7F | 0x80)
                        n >>= 7
                    append(n)
                    out += raw
                    return
                append(T_INTARR)
                while n > 0x7F:
                    append(n & 0x7F | 0x80)
                    n >>= 7
                append(n)
                for item in value:
                    z = (item << 1) if item >= 0 else ((-item) << 1) - 1
                    if z > _U64_MAX:
                        raise CodecError(
                            f"integer {item} exceeds the 64-bit wire range"
                        )
                    while z > 0x7F:
                        append(z & 0x7F | 0x80)
                        z >>= 7
                    append(z)
                return
            if kind is float:
                append(T_F64ARR)
                count = n
                while n > 0x7F:
                    append(n & 0x7F | 0x80)
                    n >>= 7
                append(n)
                out += _f64_struct(count).pack(*value)
                return
        _encode_list(out, value, index, table)
    elif t is str:
        i = index.get(value)
        if i is None:
            index[value] = i = len(table)
            table.append(value)
        append(T_STRREF)
        while i > 0x7F:
            append(i & 0x7F | 0x80)
            i >>= 7
        append(i)
    elif t is int:
        _encode_int(out, value)
    elif t is float:
        out += _pack_tagged_float(T_FLOAT, value)
    elif value is None:
        append(T_NONE)
    elif value is True:
        append(T_TRUE)
    elif value is False:
        append(T_FALSE)
    elif t is bytes or t is bytearray:
        append(T_BYTES)
        n = len(value)
        while n > 0x7F:
            append(n & 0x7F | 0x80)
            n >>= 7
        append(n)
        out += value
    else:
        # subclasses of the supported types (IntEnum, str subclasses, ...)
        if isinstance(value, bool):
            append(T_TRUE if value else T_FALSE)
        elif isinstance(value, int):
            _encode_v2_into(out, int(value), index, table)
        elif isinstance(value, float):
            _encode_v2_into(out, float(value), index, table)
        elif isinstance(value, str):
            _encode_v2_into(out, str(value), index, table)
        elif isinstance(value, (bytes, bytearray)):
            _encode_v2_into(out, bytes(value), index, table)
        elif isinstance(value, (list, tuple)):
            _encode_v2_into(out, list(value), index, table)
        elif isinstance(value, dict):
            _encode_v2_into(out, dict(value), index, table)
        else:
            raise CodecError(f"unsupported type {type(value).__name__}")


def _encode_int(out: bytearray, value: int) -> None:
    """``T_INT`` + zigzag varint of an exact ``int``."""
    z = (value << 1) if value >= 0 else ((-value) << 1) - 1
    if z > _U64_MAX:
        raise CodecError(f"integer {value} exceeds the 64-bit wire range")
    append = out.append
    append(T_INT)
    while z > 0x7F:
        append(z & 0x7F | 0x80)
        z >>= 7
    append(z)


def _encode_list(out: bytearray, value, index: dict, table: list) -> None:
    """A tagged ``T_LIST``: its count, then each item, strings, ints
    and floats written in place.  Lists of up to three items always
    take this form (too short for the typed arrays), and so does a
    longer list that is not homogeneous numbers."""
    append = out.append
    append(T_LIST)
    n = len(value)
    while n > 0x7F:
        append(n & 0x7F | 0x80)
        n >>= 7
    append(n)
    index_get = index.get
    for item in value:
        ti = type(item)
        if ti is str:
            i = index_get(item)
            if i is None:
                index[item] = i = len(table)
                table.append(item)
            append(T_STRREF)
            while i > 0x7F:
                append(i & 0x7F | 0x80)
                i >>= 7
            append(i)
        elif ti is int:
            if 0 <= item < 0x40:
                append(T_INT)
                append(item << 1)
            else:
                _encode_int(out, item)
        elif ti is float:
            out += _pack_tagged_float(T_FLOAT, item)
        else:
            _encode_v2_into(out, item, index, table)


#: the length-prefixed string-table section of a v2 body, keyed by the
#: table's tuple of strings.  A record shape that recurs with the same
#: strings (the same task ids on every device of a fan-in, a replayed
#: capture) skips the UTF-8 encoding and the length varints; a table
#: with one-off strings misses and costs one tuple and one probe.  The
#: cache is cleared when full, and a section above
#: _PREFIX_CACHE_ENTRY_MAX bytes is not cached, so it holds at most
#: _PREFIX_CACHE_MAX x _PREFIX_CACHE_ENTRY_MAX bytes of sections.
_PREFIX_CACHE: dict = {}
_PREFIX_CACHE_MAX = 1024
_PREFIX_CACHE_ENTRY_MAX = 4096


def _table_prefix(table: list) -> bytes:
    """``varint table_nbytes | varint count | count x (varint len + UTF-8)``."""
    key = tuple(table)
    prefix = _PREFIX_CACHE.get(key)
    if prefix is not None:
        return prefix
    head = bytearray()
    append = head.append
    n = len(table)
    while n > 0x7F:
        append(n & 0x7F | 0x80)
        n >>= 7
    append(n)
    for entry in table:
        raw = entry.encode("utf-8")
        n = len(raw)
        while n > 0x7F:
            append(n & 0x7F | 0x80)
            n >>= 7
        append(n)
        head += raw
    section = bytearray()
    append = section.append
    n = len(head)
    while n > 0x7F:
        append(n & 0x7F | 0x80)
        n >>= 7
    append(n)
    section += head
    prefix = bytes(section)
    if len(prefix) <= _PREFIX_CACHE_ENTRY_MAX:
        if len(_PREFIX_CACHE) >= _PREFIX_CACHE_MAX:
            _PREFIX_CACHE.clear()
        _PREFIX_CACHE[key] = prefix
    return prefix


def _encode_body_v2(value: Any) -> bytes:
    """Encode ``value`` as a v2 body: length-prefixed string table, value."""
    out = bytearray()
    table: list = []
    _encode_v2_into(out, value, {}, table)
    return _table_prefix(table) + out


# -- decoding -----------------------------------------------------------------
#
# One decoder serves both versions: ``table`` is None for v1 bodies (which
# must not contain T_STRREF).  ``buf`` is the ``bytes`` body (what zlib
# returns, or the frame's tail); ``limit`` is len(buf), hoisted out of the
# inner loop.  Dict values and list items that are one-byte ints,
# one-byte string refs or floats are read in the loop itself, and
# container counts below 0x80 without a varint call.


def _decode_from(buf, pos: int, table, limit: int):
    if pos >= limit:
        raise CodecError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == T_DICT:
        if pos < limit and buf[pos] < 0x80:
            count = buf[pos]
            pos += 1
        else:
            count, pos = _read_uvarint(buf, pos)
        if count > limit - pos:
            raise CodecError("truncated dict")
        result = {}
        tlen = len(table) if table is not None else -1
        for _ in range(count):
            if (
                pos + 1 < limit
                and buf[pos] == T_STRREF
                and buf[pos + 1] < 0x80
                and buf[pos + 1] < tlen
            ):
                key = table[buf[pos + 1]]
                pos += 2
            else:
                key, pos = _decode_from(buf, pos, table, limit)
            if pos + 1 < limit:
                t2 = buf[pos]
                b = buf[pos + 1]
                if t2 == T_STRREF and b < 0x80 and b < tlen:
                    value = table[b]
                    pos += 2
                elif t2 == T_INT and b < 0x80:
                    value = (b >> 1) if not b & 1 else -((b + 1) >> 1)
                    pos += 2
                elif t2 == T_FLOAT and pos + 9 <= limit:
                    value = _unpack_float(buf, pos + 1)[0]
                    pos += 9
                else:
                    value, pos = _decode_from(buf, pos, table, limit)
            else:
                value, pos = _decode_from(buf, pos, table, limit)
            try:
                result[key] = value
            except TypeError as exc:
                raise CodecError(f"unhashable dict key: {exc}") from exc
        return result, pos
    if tag == T_LIST:
        if pos < limit and buf[pos] < 0x80:
            count = buf[pos]
            pos += 1
        else:
            count, pos = _read_uvarint(buf, pos)
        if count > limit - pos:
            raise CodecError("truncated list")
        items = []
        append = items.append
        tlen = len(table) if table is not None else -1
        for _ in range(count):
            if pos + 1 < limit:
                t2 = buf[pos]
                b = buf[pos + 1]
                if t2 == T_STRREF and b < 0x80 and b < tlen:
                    pos += 2
                    append(table[b])
                    continue
                if t2 == T_INT and b < 0x80:
                    pos += 2
                    append((b >> 1) if not b & 1 else -((b + 1) >> 1))
                    continue
                if t2 == T_FLOAT and pos + 9 <= limit:
                    append(_unpack_float(buf, pos + 1)[0])
                    pos += 9
                    continue
            item, pos = _decode_from(buf, pos, table, limit)
            append(item)
        return items, pos
    if tag == T_INT:
        if pos >= limit:
            raise CodecError("truncated varint")
        byte = buf[pos]
        pos += 1
        if byte < 0x80:
            z = byte
        else:
            z = byte & 0x7F
            shift = 7
            while True:
                if pos >= limit:
                    raise CodecError("truncated varint")
                byte = buf[pos]
                pos += 1
                z |= (byte & 0x7F) << shift
                if not byte & 0x80:
                    break
                shift += 7
                if shift > 70:
                    raise CodecError("varint too long")
            if z > _U64_MAX:
                raise CodecError("varint exceeds the 64-bit wire range")
        return ((z >> 1) if not z & 1 else -((z + 1) >> 1)), pos
    if tag == T_STRREF:
        if table is None:
            raise CodecError("string reference outside a v2 frame")
        if pos < limit and buf[pos] < 0x80:
            i = buf[pos]
            pos += 1
        else:
            i, pos = _read_uvarint(buf, pos)
        if i >= len(table):
            raise CodecError(f"string ref {i} out of table range")
        return table[i], pos
    if tag == T_FLOAT:
        if pos + 8 > limit:
            raise CodecError("truncated float")
        return _unpack_float(buf, pos)[0], pos + 8
    if tag == T_STR:
        length, pos = _read_uvarint(buf, pos)
        end = pos + length
        if end > limit:
            raise CodecError("truncated string")
        try:
            return str(buf[pos:end], "utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string: {exc}") from exc
    if tag == T_NONE:
        return None, pos
    if tag == T_TRUE:
        return True, pos
    if tag == T_FALSE:
        return False, pos
    if tag == T_BYTES:
        length, pos = _read_uvarint(buf, pos)
        end = pos + length
        if end > limit:
            raise CodecError("truncated bytes")
        return bytes(buf[pos:end]), end
    if tag == T_U8ARR:
        if table is None:
            raise CodecError("typed array outside a v2 frame")
        count, pos = _read_uvarint(buf, pos)
        end = pos + count
        if end > limit:
            raise CodecError("truncated u8 array")
        return list(buf[pos:end]), end
    if tag == T_INTARR:
        if table is None:
            raise CodecError("typed array outside a v2 frame")
        count, pos = _read_uvarint(buf, pos)
        if count > limit - pos:
            raise CodecError("truncated int array")
        items = []
        append = items.append
        for _ in range(count):
            if pos >= limit:
                raise CodecError("truncated varint")
            byte = buf[pos]
            pos += 1
            if byte < 0x80:
                z = byte
            else:
                z = byte & 0x7F
                shift = 7
                while True:
                    if pos >= limit:
                        raise CodecError("truncated varint")
                    byte = buf[pos]
                    pos += 1
                    z |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 70:
                        raise CodecError("varint too long")
                if z > _U64_MAX:
                    raise CodecError("varint exceeds the 64-bit wire range")
            append((z >> 1) if not z & 1 else -((z + 1) >> 1))
        return items, pos
    if tag == T_F64ARR:
        if table is None:
            raise CodecError("typed array outside a v2 frame")
        count, pos = _read_uvarint(buf, pos)
        if count > (limit - pos) // 8:
            raise CodecError("truncated f64 array")
        return list(_f64_struct(count).unpack_from(buf, pos)), pos + count * 8
    raise CodecError(f"unknown type tag {tag:#x}")


#: parsed string tables keyed by their raw section bytes (the bytes
#: after the table's length varint).  Tables also intern one-off string
#: *values* (task ids), so realistic traffic mixes hits (repeated record
#: shapes, replayed captures, benchmark loops) with misses; a miss costs
#: one dict probe, a hit skips the parse entirely.  The cache is cleared
#: when full, and a section above _TABLE_CACHE_ENTRY_MAX bytes is parsed
#: but not cached.
_TABLE_CACHE: dict = {}
_TABLE_CACHE_MAX = 1024
_TABLE_CACHE_ENTRY_MAX = 4096


def _read_string_table(buf, pos: int, limit: int):
    """Read the length-prefixed v2 string table; returns (table, pos)."""
    if pos < limit and buf[pos] < 0x80:
        nbytes = buf[pos]
        pos += 1
    else:
        nbytes, pos = _read_uvarint(buf, pos)
    end_of_table = pos + nbytes
    if end_of_table > limit:
        raise CodecError("truncated string table")
    section = bytes(buf[pos:end_of_table])
    cacheable = nbytes <= _TABLE_CACHE_ENTRY_MAX
    if cacheable:
        table = _TABLE_CACHE.get(section)
        if table is not None:
            return table, end_of_table
    count, tpos = _read_uvarint(section, 0)
    if count > nbytes - tpos:
        raise CodecError("truncated string table")
    table = []
    append = table.append
    for _ in range(count):
        if tpos < nbytes and section[tpos] < 0x80:
            length = section[tpos]
            tpos += 1
        else:
            length, tpos = _read_uvarint(section, tpos)
        end = tpos + length
        if end > nbytes:
            raise CodecError("truncated string table")
        try:
            append(str(section[tpos:end], "utf-8"))
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string table: {exc}") from exc
        tpos = end
    if tpos != nbytes:
        raise CodecError("string table length mismatch")
    if cacheable:
        if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
            _TABLE_CACHE.clear()
        _TABLE_CACHE[section] = table
    return table, end_of_table


# -- raw value API (v1 format) ------------------------------------------------


def encode_value(value: Any) -> bytes:
    """Encode one value to the raw v1 (uncompressed, unframed) format."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Decode one raw v1 value; trailing bytes are an error."""
    value, pos = _decode_from(data, 0, None, len(data))
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes")
    return value


# -- framed payloads ----------------------------------------------------------


def encode_payload(
    value: Any,
    compress: bool = True,
    level: int = 6,
    cipher=None,
    version: int = VERSION,
) -> bytes:
    """Encode and frame a payload (v2 wire format by default).

    Compression is applied when it pays off — and not even attempted for
    bodies under :data:`MIN_COMPRESS_SIZE`; if ``cipher`` (a
    :class:`repro.core.security.PayloadCipher`) is given, the body is
    encrypted-then-MACed after compression — the paper's future-work
    "secure the data transmission" extension.  Pass ``version=1`` to emit
    the legacy inline-string frame for v1-only consumers.
    """
    if version == VERSION_2:
        body: Any = _encode_body_v2(value)
    elif version == VERSION_1:
        body = bytearray()
        _encode_into(body, value)
    else:
        raise CodecError(f"unsupported version {version}")
    flags = 0
    if compress and len(body) >= MIN_COMPRESS_SIZE:
        packed = zlib.compress(body, level)
        if len(packed) < len(body):
            body = packed
            flags |= FLAG_COMPRESSED
    if cipher is not None:
        body = cipher.encrypt(body if isinstance(body, bytes) else bytes(body))
        flags |= FLAG_ENCRYPTED
    return _HEADERS[version, flags] + body


def decode_payload(data: bytes, cipher=None) -> Any:
    """Decode a framed payload produced by :func:`encode_payload`.

    Accepts both v1 and v2 frames, so old captures and the MQTT-SN path
    keep working across the version bump.
    """
    if len(data) < HEADER_SIZE or data[:2] != MAGIC:
        raise CodecError("bad magic")
    version, flags = data[2], data[3]
    if version != VERSION_2 and version != VERSION_1:
        raise CodecError(f"unsupported version {version}")
    body = data[HEADER_SIZE:]
    if flags & FLAG_ENCRYPTED:
        if cipher is None:
            raise CodecError("payload is encrypted but no cipher was provided")
        from .security import AuthenticationError

        try:
            body = cipher.decrypt(bytes(body))
        except AuthenticationError as exc:
            raise CodecError(f"decryption failed: {exc}") from exc
    if flags & FLAG_COMPRESSED:
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise CodecError(f"decompression failed: {exc}") from exc
    limit = len(body)
    if version == VERSION_1:
        value, pos = _decode_from(body, 0, None, limit)
    else:
        table, pos = _read_string_table(body, 0, limit)
        value, pos = _decode_from(body, pos, table, limit)
    if pos != limit:
        raise CodecError(f"{limit - pos} trailing bytes")
    return value
