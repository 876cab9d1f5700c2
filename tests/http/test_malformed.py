"""Malformed HTTP traffic is an HTTP error, never a crashed simulation.

A bad ``Content-Length`` (non-numeric or negative) or a message head
that is not UTF-8 makes the parser raise :class:`HttpError`.  The server
answers 400 and closes that connection only; the client session turns
it into :class:`HttpRequestError` and drops the pooled connection.
"""

import pytest

from repro.http import (
    HttpError,
    HttpRequestError,
    HttpResponse,
    HttpServer,
    HttpSession,
    parse_head,
    read_response,
)
from repro.http.messages import HEAD_END
from repro.net import Network
from repro.simkernel import Environment

BAD_REQUESTS = [
    b"POST /p HTTP/1.1\r\nContent-Length: abc\r\n\r\nabc",
    b"POST /p HTTP/1.1\r\nContent-Length: -3\r\n\r\nabc",
    b"POST /p HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
    b"GET /p HTTP/1.1\r\nX-Bad: \xff\r\n\r\n",
    b"GET /p HTTP/1.1\r\n\xfe: v\r\n\r\n",
    b"GET /\xff HTTP/1.1\r\n\r\n",
]

BAD_RESPONSES = [
    b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -2\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\nServer: \xff\r\n\r\n",
    b"HTTP/1.1 200 \xff\r\n\r\n",
]


def make_net():
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("client")
    net.add_host("server")
    net.connect("client", "server", bandwidth_bps=1e9, latency_s=0.01)
    return env, net


def at_eof(conn, rest):
    """Generator: True when nothing follows ``rest`` but the end of the
    stream, False as soon as another byte arrives."""
    if rest:
        return False
    data = yield conn.recv()
    return data == b""


def raw_exchange(env, net, raw, out, key):
    """Process: send ``raw`` on a fresh connection, read the response
    and then the end of the stream."""
    conn = yield from net.hosts["client"].tcp_connect(("server", 80))
    conn.send(raw)
    response, rest = yield from read_response(conn)
    eof = yield from at_eof(conn, rest)
    out[key] = (response.status, eof)


@pytest.mark.parametrize("raw", BAD_REQUESTS)
def test_server_answers_400_and_keeps_serving_other_connections(raw):
    env, net = make_net()
    seen = []

    def handler(request):
        seen.append(request.body)
        return HttpResponse(status=200, body=b"ok")

    server = HttpServer(net.hosts["server"], 80, handler)
    out = {}
    good = b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
    env.process(raw_exchange(env, net, raw, out, "bad"))
    env.process(raw_exchange(env, net, good + good, out, "good"))
    env.run()
    assert out["bad"] == (400, True)  # answered, then that connection closed
    assert seen == [b"hi", b"hi"]  # the handler never saw the bad request
    assert server.requests.count == 2
    assert server.errors.count == 1
    # the good connection is still open: its second read is not at EOF
    assert out["good"] == (200, False)


@pytest.mark.parametrize("raw", BAD_RESPONSES)
def test_session_turns_a_malformed_response_into_a_request_error(raw):
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    out = {}

    def server(env):
        conn = yield listener.accept()
        received = b""
        while HEAD_END not in received:  # the GET has no body
            received += yield conn.recv()
        conn.send(raw)
        out["server_eof"] = yield from at_eof(conn, received.partition(HEAD_END)[2])

    session = HttpSession(net.hosts["client"])

    def client(env):
        try:
            yield from session.get(("server", 80), "/p")
        except HttpRequestError as exc:
            out["error"] = exc

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert isinstance(out["error"].__cause__, HttpError)
    assert session._conns == {}  # the pooled connection is dropped...
    assert out["server_eof"] is True  # ...and closed
    assert session.request_count == 0


@pytest.mark.parametrize("raw", BAD_REQUESTS)
def test_request_head_parser_raises_http_error(raw):
    with pytest.raises(HttpError) as caught:
        parse_head(raw[:raw.index(HEAD_END)])
    assert type(caught.value) is HttpError


@pytest.mark.parametrize("raw", BAD_RESPONSES)
def test_read_response_raises_http_error_once_the_head_is_in(raw):
    """The head is rejected before a body is awaited: the stream stays
    open, and no further byte arrives."""
    env, net = make_net()
    listener = net.hosts["server"].tcp_listen(80)
    out = {}

    def server(env):
        conn = yield listener.accept()
        conn.send(raw)

    def client(env):
        conn = yield from net.hosts["client"].tcp_connect(("server", 80))
        try:
            yield from read_response(conn)
        except HttpError as exc:
            out["error"] = (exc, conn.closed)

    env.process(server(env))
    env.process(client(env))
    env.run()
    assert type(out["error"][0]) is HttpError and out["error"][1] is False
