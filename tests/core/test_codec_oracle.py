"""The payload codec against its frozen previous implementation.

``tests/core/payload_oracle.py`` keeps the codec as it was before the
table-prefix cache and the inline fast paths.  Encoding must produce the
same bytes for v1 and v2, compressed or not, with or without a cipher;
decoding must return the same value, and raise ``CodecError`` exactly
where the oracle does, on valid frames and on frames mutated by
truncation, byte flips and splices (bare, and inside the durable
``(client_id, seq)`` envelope).  Values are compared by ``repr``, which
tells ``1`` from ``1.0`` and ``True``, ``-0.0`` from ``0.0`` and keeps
dict order, and which shows NaN as ``nan`` on both sides.
"""

import enum

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.capture import unwrap_payload, wrap_payload
from repro.capture.envelope import EnvelopeError
from repro.core import CodecError, PayloadCipher, decode_payload, encode_payload
from repro.core import serialization as ser

from . import payload_oracle as oracle


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class Tag(str):
    pass


class Big(int):
    pass


class Real(float):
    pass


#: zigzag and varint width boundaries, and the first values past the
#: 64-bit wire range (both codecs must refuse them)
INT_EDGES = [
    0, 1, -1, 63, 64, -64, -65, 127, 128, 255, 256, 8191, 8192, 2**31,
    2**63 - 1, -(2**63), 2**63, -(2**63) - 1,
]

ints = st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.sampled_from(INT_EDGES)
floats = st.floats() | st.sampled_from([-0.0, 0.0, float("nan"), float("inf")])
texts = st.text(max_size=10) | st.text(min_size=128, max_size=150)
leaves = (
    st.none()
    | st.booleans()
    | ints
    | floats
    | texts
    | st.binary(max_size=12)
    | st.sampled_from([Level.LOW, Level.HIGH])
    | ints.map(Big)
    | floats.map(Real)
    | texts.map(Tag)
)
homogeneous_arrays = (
    st.lists(st.integers(0, 255), min_size=4, max_size=40)
    | st.lists(ints, min_size=4, max_size=12)
    | st.lists(floats, min_size=4, max_size=12)
)
values = st.recursive(
    leaves | homogeneous_arrays,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(texts | texts.map(Tag), children, max_size=6),
    max_leaves=30,
)


def record(i, kind="task_end"):
    """A ``core/model.py`` task record with one output datum."""
    tag = "out" if kind == "task_end" else "in"
    return {
        "kind": kind, "workflow_id": 1, "task_id": f"0-{i}",
        "transformation_id": 0, "dependencies": [f"0-{i - 1}"],
        "time": 0.5 * i, "status": "finished" if kind == "task_end" else "running",
        "data": [{"id": f"{tag}{i}", "workflow_id": 1,
                  "derivations": [f"in{i}"], "attributes": {tag: [2] * 100}}],
    }


@st.composite
def big_tables(draw):
    """Payloads whose string tables pass 127 and 16,383 entries, so refs
    take one, two and three varint bytes in dict keys, dict values, list
    items and short lists: a flushed group of task records, as grouped
    capture sends them, and a long list of distinct strings."""
    prefix = draw(st.text(max_size=3))
    if draw(st.booleans()):
        count = draw(st.integers(40, 60))
        return [record(i) for i in range(count)]
    count = draw(st.sampled_from([127, 128, 129, 300, 16383, 16384, 16390]))
    names = [f"{prefix}{i}" for i in range(count)]
    return {"names": names, "tail": {names[-1]: names[-2]},
            "short": [names[-3]], "again": names[count // 2]}


def outcome(function, *args, **kwargs):
    """``("ok", repr(result))``, or ``("error", exception class)``."""
    try:
        return "ok", repr(function(*args, **kwargs))
    except CodecError:
        return "error", CodecError


def same_encoding(value, **kwargs):
    try:
        expected = oracle.encode_payload(value, **kwargs)
    except CodecError:
        expected = CodecError
    try:
        got = encode_payload(value, **kwargs)
    except CodecError:
        got = CodecError
    assert got == expected


@given(values, st.sampled_from([1, 2]), st.booleans())
@settings(max_examples=300, deadline=None)
@example([Level.LOW, True, False, 2], 2, False)
@example({"time": -0.0, "x": float("nan")}, 2, False)
def test_encode_payload_matches_the_frozen_encoder(value, version, compress):
    same_encoding(value, version=version, compress=compress)


@given(values, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_encrypted_encode_matches_the_frozen_encoder(value, seed):
    key = bytes(range(16))
    expected = got = None
    try:
        expected = oracle.encode_payload(
            value, cipher=PayloadCipher(key, rng=np.random.default_rng(seed))
        )
    except CodecError:
        expected = CodecError
    try:
        got = encode_payload(
            value, cipher=PayloadCipher(key, rng=np.random.default_rng(seed))
        )
    except CodecError:
        got = CodecError
    assert got == expected


@given(big_tables(), st.sampled_from([1, 2]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_big_string_tables_match_the_frozen_codec(value, version, compress):
    wire = oracle.encode_payload(value, version=version, compress=compress)
    assert encode_payload(value, version=version, compress=compress) == wire
    assert outcome(decode_payload, wire) == outcome(oracle.decode_payload, wire)


@given(values, st.sampled_from([1, 2]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_decode_payload_matches_the_frozen_decoder(value, version, compress):
    try:
        wire = oracle.encode_payload(value, version=version, compress=compress)
    except CodecError:
        return
    assert outcome(decode_payload, wire) == outcome(oracle.decode_payload, wire)


# -- mutated frames ---------------------------------------------------------------


@st.composite
def mutations(draw, wire: bytes):
    """``wire`` truncated, with bytes flipped, or with a span replaced."""
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    if kind == "truncate":
        return wire[: draw(st.integers(0, max(0, len(wire) - 1)))]
    data = bytearray(wire)
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= draw(st.integers(1, 255))
        return bytes(data)
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 8)))
    return bytes(data[:start]) + draw(st.binary(max_size=8)) + bytes(data[end:])


mutable_values = st.recursive(
    leaves | homogeneous_arrays,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=12,
) | st.integers(1, 60).map(lambda i: record(i, "task_begin"))


@st.composite
def mutated_frames(draw):
    value = draw(mutable_values)
    version = draw(st.sampled_from([1, 2]))
    compress = draw(st.booleans())
    try:
        wire = oracle.encode_payload(value, version=version, compress=compress)
    except CodecError:
        wire = oracle.encode_payload([1, "x"], version=version, compress=compress)
    enveloped = draw(st.booleans())
    if enveloped:
        wire = wrap_payload(draw(st.text(min_size=1, max_size=8)),
                            draw(st.integers(0, 2**40)), wire)
    return enveloped, draw(mutations(wire))


@given(mutated_frames())
@settings(max_examples=600, deadline=None)
@example((False, b"PL\x02\x00\x02\x01\x00\x09\x00"))
def test_mutated_frames_decode_like_the_frozen_decoder(case):
    """Only ``CodecError`` (``EnvelopeError`` for a broken envelope) may
    come out, and exactly where the oracle raises it."""
    enveloped, data = case
    if enveloped:
        try:
            unwrapped = unwrap_payload(data)
        except EnvelopeError:
            return
        if unwrapped is not None:  # a mutated magic makes it a bare frame
            data = unwrapped[2]
    assert outcome(decode_payload, data) == outcome(oracle.decode_payload, data)


# -- the caches are bounded ----------------------------------------------------------


def test_table_prefix_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ser, "_PREFIX_CACHE", {})
    monkeypatch.setattr(ser, "_PREFIX_CACHE_MAX", 8)
    for i in range(20):
        assert decode_payload(encode_payload({"k": f"v{i}"})) == {"k": f"v{i}"}
        assert len(ser._PREFIX_CACHE) <= 8
    # a section above the entry bound is encoded but never cached
    huge = "x" * (ser._PREFIX_CACHE_ENTRY_MAX + 1)
    assert decode_payload(encode_payload([huge])) == [huge]
    assert all(huge not in key for key in ser._PREFIX_CACHE)


def test_the_encoder_keeps_no_scratch_buffers_or_string_cache():
    assert not hasattr(ser, "_SCRATCH_POOL")
    assert not hasattr(ser, "_UTF8_CACHE")
