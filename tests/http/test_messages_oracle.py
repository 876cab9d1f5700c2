"""The one-pass encoders and the buffer parser against the frozen
encoders and generator parsers in ``messages_oracle.py``.

Encoding must be byte-identical.  Parsing a message, whole or arriving
in two pieces, must give an equal message and leave the same bytes
after it, or raise the same :class:`HttpError` (same class name, same
text), on valid heads and on mutated ones: truncated, a flipped byte, a
missing colon, a bad ``Content-Length``, a byte that is not UTF-8.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.http import messages
from repro.http.messages import HEAD_END, HttpError, parse_head

from . import messages_oracle as oracle

#: stands for the event ``conn.recv()`` returns; ``drive`` below sends
#: each generator its data directly
RECV = object()


class FakeConn:
    def recv(self):
        return RECV


def drive(generator, chunks):
    """Run a parser generator, answering each ``recv()`` with the next
    chunk and then with end-of-stream; returns ``("ok", value)`` or
    ``("error", class name, text)``."""
    chunks = list(chunks) + [b""] * 2
    try:
        waited = generator.send(None)
        while True:
            assert waited is RECV
            waited = generator.send(chunks.pop(0))
    except StopIteration as stop:
        return ("ok", stop.value)
    except (HttpError, oracle.HttpError) as exc:
        return ("error", type(exc).__name__, str(exc))


def fields(message):
    return (type(message).__name__, *vars(message).values())


def oracle_parse(raw, chunks, response):
    reader = oracle.StreamReader(FakeConn())
    parse = oracle.read_response if response else oracle.read_request
    outcome = drive(parse(reader), chunks)
    if outcome[0] == "ok":
        return ("ok", fields(outcome[1]), bytes(reader._buf))
    return outcome


def parse_request(conn):
    """Frame one request as the server does: wait for the head, parse
    it, wait for the body."""
    buf = b""
    while HEAD_END not in buf:
        data = yield conn.recv()
        if not data:
            raise messages.ConnectionClosed("peer closed the connection")
        buf += data
    end = buf.index(HEAD_END)
    (method, path, version), headers, length = parse_head(buf[:end])
    buf = buf[end + 4:]
    while len(buf) < length:
        data = yield conn.recv()
        if not data:
            raise messages.ConnectionClosed("peer closed the connection")
        buf += data
    return messages.HttpRequest(method, path, headers, buf[:length], version), buf[length:]


def new_parse(raw, chunks, response):
    parse = messages.read_response(FakeConn()) if response else parse_request(FakeConn())
    outcome = drive(parse, chunks)
    if outcome[0] == "ok":
        message, rest = outcome[1]
        return ("ok", fields(message), rest)
    return outcome


tokens = st.text(st.characters(blacklist_characters=" \r\n", blacklist_categories=("Cs",)),
                 min_size=1, max_size=8)
header_text = st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)),
                      max_size=12)
header_names = st.one_of(st.sampled_from(["Host", "Content-Type", "Connection", "Accept"]),
                         header_text.filter(lambda k: ":" not in k))
headers = st.dictionaries(header_names, header_text, max_size=4)
bodies = st.one_of(st.just(b""), st.binary(max_size=40))
methods = st.one_of(st.sampled_from(["GET", "POST", "PUT", "DELETE"]), tokens)
paths = st.one_of(st.sampled_from(["/", "/prov", "/p?q=1"]), tokens)
#: what a mutation does to the encoded message
mutations = st.one_of(
    st.none(),
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
    st.tuples(st.just("colon"), st.floats(0, 1)),
    st.tuples(st.just("length"), st.sampled_from(["x", "-1", "+2", " 3", "1.0", "", "99", "٣"])),
    st.tuples(st.just("utf8"), st.floats(0, 1)),
)


def mutate(raw, mutation):
    if mutation is None:
        return raw
    kind, *args = mutation
    if kind == "truncate":
        return raw[:int(args[0] * len(raw))]
    if kind == "flip":
        at = min(int(args[0] * len(raw)), len(raw) - 1)
        return raw[:at] + bytes([raw[at] ^ args[1]]) + raw[at + 1:]
    if kind == "colon":
        colons = [i for i, byte in enumerate(raw) if byte == ord(":")]
        if not colons:
            return raw
        at = colons[min(int(args[0] * len(colons)), len(colons) - 1)]
        return raw[:at] + raw[at + 1:]
    if kind == "length":
        head, sep, body = raw.partition(HEAD_END)
        return head + f"\r\nContent-Length: {args[0]}".encode() + sep + body
    at = int(args[0] * len(raw))
    return raw[:at] + b"\xff" + raw[at:]


def assert_same_encoding(new, old):
    try:
        expected = old.encode()
    except UnicodeEncodeError as exc:
        expected = type(exc)
    try:
        got = new.encode()
    except UnicodeEncodeError as exc:
        got = type(exc)
    assert got == expected


def assert_same_parse(raw, split, response):
    cut = int(split * len(raw))
    for chunks in ([raw], [raw[:cut], raw[cut:]]):
        chunks = [chunk for chunk in chunks if chunk]
        assert new_parse(raw, chunks, response) == oracle_parse(raw, chunks, response)


@given(method=methods, path=paths, hdrs=headers, body=bodies,
       length=st.sampled_from([None, "exact", "other"]), mutation=mutations,
       trailer=st.binary(max_size=8), split=st.floats(0, 1))
@example(method="POST", path="/prov", hdrs={"Host": "cloud:80"}, body=b"{}", length=None,
         mutation=None, trailer=b"", split=0.5)
@example(method="GET", path="/é", hdrs={"X-Note": "naïve"}, body=b"", length=None,
         mutation=("utf8", 0.2), trailer=b"", split=0.0)
@settings(max_examples=300, deadline=None)
def test_requests_match_the_frozen_codec(method, path, hdrs, body, length, mutation,
                                         trailer, split):
    hdrs = dict(hdrs)
    if length == "exact":
        hdrs["Content-Length"] = str(len(body))
    elif length == "other":
        hdrs["Content-Length"] = str(len(body) + 3)
    new = messages.HttpRequest(method, path, hdrs, body)
    old = oracle.HttpRequest(method, path, dict(hdrs), body)
    assert_same_encoding(new, old)
    try:
        raw = old.encode()
    except UnicodeEncodeError:
        return
    assert_same_parse(mutate(raw, mutation) + trailer, split, response=False)


@given(status=st.integers(100, 599), reason=st.one_of(st.just(""), header_text),
       hdrs=headers, body=bodies, length=st.sampled_from([None, "exact", "other"]),
       mutation=mutations, trailer=st.binary(max_size=8), split=st.floats(0, 1))
@example(status=201, reason="Created", hdrs={}, body=b"", length=None, mutation=None,
         trailer=b"", split=0.5)
@example(status=200, reason="OK", hdrs={"Server": "ünï"}, body=b"ok", length="exact",
         mutation=("flip", 0.1, 0x80), trailer=b"HTTP", split=0.9)
@settings(max_examples=300, deadline=None)
def test_responses_match_the_frozen_codec(status, reason, hdrs, body, length, mutation,
                                          trailer, split):
    hdrs = dict(hdrs)
    if length == "exact":
        hdrs["Content-Length"] = str(len(body))
    elif length == "other":
        hdrs["Content-Length"] = str(len(body) + 3)
    new = messages.HttpResponse(status, reason, hdrs, body)
    old = oracle.HttpResponse(status, reason, dict(hdrs), body)
    assert_same_encoding(new, old)
    try:
        raw = old.encode()
    except UnicodeEncodeError:
        return
    assert_same_parse(mutate(raw, mutation) + trailer, split, response=True)


@given(raw=st.binary(max_size=80), split=st.floats(0, 1), response=st.booleans())
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_parse_alike(raw, split, response):
    assert_same_parse(raw + HEAD_END, split, response)


def test_the_parsers_reach_every_outcome():
    """Guard against a vacuous oracle: ``drive`` sees parsed messages,
    each kind of error and a stream that ends mid-message."""
    seen = set()
    for raw in [b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi",
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhi",
                b"GET /\r\n\r\n", b"GET / HTTP/1.1\r\nBad\r\n\r\n",
                b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n", b"GET /\xff HTTP/1.1\r\n\r\n"]:
        outcome = new_parse(raw, [raw], response=False)
        assert outcome == oracle_parse(raw, [raw], response=False)
        seen.add(outcome[0] if outcome[0] == "ok" else outcome[2].split(" ")[0])
    assert seen == {"ok", "peer", "malformed", "bad", "message"}
