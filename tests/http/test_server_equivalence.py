"""The callback :class:`~repro.http.HttpServer` against the
per-connection process it replaced (``server_oracle.py``).

Raw TCP clients send scripted bytes at scheduled times: keep-alive
requests and ``Connection: close``, two requests in one segment, one
request split over several sends and segments, a malformed request
(400), a raising handler (500), a generator handler, a handler that
returns nothing (204), and clients that close between messages or in
the middle of one, over one or two workers with and without a service
time.  Both servers must give the same per-request sim times (arrival
at the worker pool, grant, release), the same handler calls, the same
TCP sends and receipts in the same instants, the same link byte counts
and connection states, and the same request and error counts.
"""

import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http import HttpResponse, HttpServer
from repro.net import Network
from repro.net.tcp import ConnectionReset, TcpConnection
from repro.simkernel import Environment, Resource

from .server_oracle import ProcessHttpServer

CLOSE = "close"


def post(path="/p", body=b"x" * 10, close=False):
    head = f"POST {path} HTTP/1.1\r\nHost: server:80\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + f"Content-Length: {len(body)}\r\n\r\n").encode() + body


BIG = post(body=bytes(range(256)) * 16)  # 4 KiB: spans three segments
BAD = b"POST /p HTTP/1.1\r\nContent-Length: x\r\n\r\n"

#: name -> connections, each a list of (send time, bytes or CLOSE)
CASES = {
    "keep-alive": [[(0.0, post()), (0.1, post()), (0.2, post(close=True))]],
    "connection-close": [[(0.0, post(close=True)), (0.1, post())]],
    "two-in-one-segment": [[(0.0, post() + post(body=b"y" * 300))]],
    "split-over-segments": [[(0.0, BIG[:20]), (0.05, BIG[20:100]), (0.1, BIG[100:])]],
    "malformed": [[(0.0, BAD + post())], [(0.0, post()), (0.1, post())]],
    "raising-handler": [[(0.0, post("/raise")), (0.0, post())]],
    "generator-handler": [[(0.0, post("/gen") + post())], [(0.01, post("/gen"))]],
    "no-response": [[(0.0, post("/none"))]],
    "close-between": [[(0.0, post()), (0.2, CLOSE)]],
    "close-mid-message": [[(0.0, BIG[:30]), (0.05, CLOSE)], [(0.0, BIG[:2000]), (0.0, CLOSE)]],
    "queueing": [[(0.0, post() + post("/gen"))], [(0.0, post("/raise") + post())],
                 [(0.0, BIG)], [(0.001, post(close=True))]],
}


class LoggingResource(Resource):
    """A worker pool that logs each request's arrival and, on release,
    its grant time."""

    def __init__(self, env, capacity, log):
        super().__init__(env, capacity)
        self.log = log

    def request(self):
        request = super().request()
        self.log("arrive", len(self.users), len(self.queue))
        return request

    def _do_cancel(self, request):
        self.log("release", request.usage_since)
        super()._do_cancel(request)


def simulate(server_cls, connections, workers, service_time_s, link):
    env = Environment()
    net = Network(env, seed=3)
    client, server_host = net.add_host("client"), net.add_host("server")
    net.connect("client", "server", bandwidth_bps=link[0], latency_s=link[1])
    trace = []

    def log(*what):
        trace.append((env.now,) + what)

    def handler(request):
        log("handle", request.path, len(request.body))
        if request.path == "/raise":
            raise RuntimeError("handler bug")
        if request.path == "/none":
            return None
        if request.path == "/gen":
            return generator_handler(request)
        return HttpResponse(status=201, reason="Created", body=request.body[:4])

    def generator_handler(request):
        yield env.timeout(0.003)
        log("generator", request.path)
        return HttpResponse(status=202, reason="Accepted", body=b"later")

    server = server_cls(server_host, 80, handler, workers=workers,
                        service_time_s=service_time_s)
    server._workers = LoggingResource(env, workers, log)
    conns = []

    def reader(index, conn):
        while True:
            data = yield conn.recv()
            log("recv", index, len(data), zlib.crc32(data))
            if not data:
                return

    def run_client(index, actions):
        conn = yield from client.tcp_connect(("server", 80))
        conns.append(conn)
        env.process(reader(index, conn))
        for at, what in actions:
            if at > env.now:
                yield env.timeout(at - env.now)
            try:
                if what == CLOSE:
                    conn.close()
                else:
                    conn.send(what)
            except (ConnectionReset, RuntimeError) as exc:  # reset, or sent after close
                log("error", index, type(exc).__name__)

    real_send = TcpConnection.send

    def logged_send(conn, data, tail=False):
        log("send", conn.host.name, conn.local_port, len(data), zlib.crc32(data), tail)
        real_send(conn, data, tail)

    with mock.patch.object(TcpConnection, "send", logged_send):
        for index, actions in enumerate(connections):
            env.process(run_client(index, actions))
        try:
            env.run(until=30)
        except ConnectionReset as exc:  # a server send on a reset connection
            log("crash", str(exc))
    states = sorted((c.state, c._next_seq, c._last_acked, c._expected_seq) for c in conns)
    counters = (server.requests.count, server.errors.count,
                net.link("client", "server").tx_bytes.total,
                net.link("server", "client").tx_bytes.total)
    return trace, states, counters


def assert_equivalent(connections, workers, service_time_s, link=(1e9, 0.023)):
    expected = simulate(ProcessHttpServer, connections, workers, service_time_s, link)
    got = simulate(HttpServer, connections, workers, service_time_s, link)
    assert got[0] == expected[0]
    assert got[1:] == expected[1:]
    return got


@pytest.mark.parametrize("service_time_s", [0.002, 0.0])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_callback_server_matches_the_process_server(case, workers, service_time_s):
    assert_equivalent(CASES[case], workers, service_time_s)


pieces = st.sampled_from([post(), post("/gen"), post("/raise"), post("/none"),
                          post(close=True), BAD, BIG])
actions = st.lists(
    st.tuples(st.sampled_from([0.0, 1 / 64, 1 / 32, 0.1]),
              st.one_of(pieces, pieces.map(lambda raw: raw[:17]),
                        pieces.map(lambda raw: raw[17:]), st.just(CLOSE))),
    min_size=1, max_size=5,
).map(lambda acts: sorted(acts, key=lambda act: act[0]))


@given(connections=st.lists(actions, min_size=1, max_size=4),
       workers=st.integers(1, 2), service_time_s=st.sampled_from([0.0, 1 / 64, 0.002]),
       link=st.sampled_from([(1e9, 0.023), (2.0 ** 20, 1 / 64)]))
@settings(max_examples=60, deadline=None)
def test_random_scripts_match_the_process_server(connections, workers, service_time_s, link):
    assert_equivalent(connections, workers, service_time_s, link)


def test_the_cases_reach_every_path():
    """Guard against a vacuous oracle: the fixed cases queue a request
    behind a busy worker, reach every handler path, answer a malformed
    request 400 while serving the other connection, and never hand a
    request cut off by its client's close to the handler."""
    trace, _states, (requests, errors, _up, _down) = assert_equivalent(CASES["queueing"], 1, 0.002)
    assert any(what[0] == "arrive" and what[2] > 0 for _t, *what in trace)
    statuses = set()
    for case in CASES.values():
        trace, *_ = assert_equivalent(case, 1, 0.002)
        statuses |= {what[1] for _t, *what in trace if what[0] == "handle"}
    assert statuses == {"/p", "/gen", "/raise", "/none"}
    trace, _states, (requests, errors, _up, _down) = assert_equivalent(CASES["malformed"], 2, 0.0)
    assert errors == 1 and requests == 2
    trace, *_ = assert_equivalent(CASES["close-mid-message"], 1, 0.002)
    assert not any(what[0] == "handle" for _t, *what in trace)
