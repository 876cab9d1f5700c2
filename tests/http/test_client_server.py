"""End-to-end HTTP tests over the simulated network."""

import pytest

from repro.http import HttpRequestError, HttpResponse, HttpServer, HttpSession
from repro.net import Network
from repro.net.faults import LinkFaultInjector
from repro.simkernel import Environment


def make_world(latency=0.023, bandwidth=1e9, handler=None, workers=8,
               service_time=0.002):
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("client")
    net.add_host("server")
    net.connect("client", "server", bandwidth_bps=bandwidth, latency_s=latency)
    if handler is None:
        def handler(request):
            return HttpResponse(status=200, body=b"pong")
    server = HttpServer(net.hosts["server"], 80, handler, workers=workers,
                        service_time_s=service_time)
    session = HttpSession(net.hosts["client"])
    return env, net, server, session


def test_get_roundtrip():
    env, net, server, session = make_world()
    out = {}

    def client(env):
        resp = yield from session.get(("server", 80), "/ping")
        out["resp"] = resp

    env.process(client(env))
    env.run()
    assert out["resp"].status == 200
    assert out["resp"].body == b"pong"
    assert server.requests.count == 1


def test_post_body_reaches_handler():
    seen = []

    def handler(request):
        seen.append((request.method, request.path, request.body))
        return HttpResponse(status=201, reason="Created")

    env, net, server, session = make_world(handler=handler)

    def client(env):
        resp = yield from session.post(("server", 80), "/prov", b'{"x": 1}')
        assert resp.status == 201

    env.process(client(env))
    env.run()
    assert seen == [("POST", "/prov", b'{"x": 1}')]


def test_request_latency_includes_rtt_and_service():
    env, net, server, session = make_world(latency=0.023, service_time=0.002)
    out = {}

    def client(env):
        # First request pays the TCP handshake; measure the second.
        yield from session.get(("server", 80), "/a")
        t0 = env.now
        yield from session.get(("server", 80), "/b")
        out["latency"] = env.now - t0

    env.process(client(env))
    env.run()
    # one RTT (0.046) + service (0.002) plus transmission epsilon
    assert out["latency"] == pytest.approx(0.048, rel=0.05)


def test_keep_alive_reuses_connection():
    env, net, server, session = make_world()

    def client(env):
        for _ in range(5):
            yield from session.get(("server", 80), "/r")

    env.process(client(env))
    env.run()
    assert session.request_count == 5
    assert len(session._conns) == 1


def test_connection_close_header_tears_down():
    def handler(request):
        return HttpResponse(status=200, headers={"Connection": "close"})

    env, net, server, session = make_world(handler=handler)

    def client(env):
        yield from session.get(("server", 80), "/once")
        assert len(session._conns) == 0
        yield from session.get(("server", 80), "/twice")  # redials

    env.process(client(env))
    env.run()
    assert session.request_count == 2


def test_handler_exception_returns_500():
    def handler(request):
        raise RuntimeError("boom")

    env, net, server, session = make_world(handler=handler)
    out = {}

    def client(env):
        resp = yield from session.get(("server", 80), "/crash")
        out["status"] = resp.status

    env.process(client(env))
    env.run()
    assert out["status"] == 500
    assert server.errors.count == 1


def test_generator_handler_waits_on_events():
    def handler(request):
        def gen():
            yield request  # noop to prove generator protocol; replaced below
        # a real generator handler yields sim events:
        return _slow_handler(request)

    def _slow_handler(request):
        yield env_holder["env"].timeout(0.5)
        return HttpResponse(status=200, body=b"slow")

    env_holder = {}
    env, net, server, session = make_world(handler=handler, service_time=0.0)
    env_holder["env"] = env
    out = {}

    def client(env):
        yield from session.get(("server", 80), "/warm")  # pays handshake
        t0 = env.now
        resp = yield from session.get(("server", 80), "/slow")
        out["latency"] = env.now - t0
        out["body"] = resp.body

    env.process(client(env))
    env.run()
    assert out["body"] == b"slow"
    assert out["latency"] > 0.5


def test_worker_pool_limits_concurrency():
    def handler(request):
        def gen():
            yield env_holder["env"].timeout(1.0)
            return HttpResponse(status=200)
        return gen()

    env_holder = {}
    env, net, server, session = make_world(handler=handler, workers=1,
                                           service_time=0.0)
    env_holder["env"] = env
    finish_times = []

    def one_client(env, i):
        own = HttpSession(net.hosts["client"])
        yield from own.get(("server", 80), f"/{i}")
        finish_times.append(env.now)

    net = net  # noqa: F841  (closure capture)
    for i in range(3):
        env.process(one_client(env, i))
    env.run()
    finish_times.sort()
    # with one worker the 1s handlers serialize: spaced ~1s apart
    assert finish_times[1] - finish_times[0] == pytest.approx(1.0, abs=0.1)
    assert finish_times[2] - finish_times[1] == pytest.approx(1.0, abs=0.1)


def test_request_to_missing_server_fails():
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("client")
    net.add_host("void")
    net.connect("client", "void", bandwidth_bps=1e9, latency_s=0.001)
    session = HttpSession(net.hosts["client"])
    failures = []

    def client(env):
        try:
            yield from session.get(("void", 80), "/nope")
        except HttpRequestError as exc:
            failures.append(str(exc))

    env.process(client(env))
    env.run()
    assert len(failures) == 1


def test_slow_link_bounds_post_throughput():
    env, net, server, session = make_world(latency=0.023, bandwidth=25e3)
    out = {}

    def client(env):
        body = b"j" * 2000  # ~2KB at 25Kbit/s -> ~0.7s upstream
        t0 = env.now
        yield from session.post(("server", 80), "/prov", body)
        out["latency"] = env.now - t0

    env.process(client(env))
    env.run()
    assert out["latency"] > 0.6


def test_many_sequential_requests_count():
    env, net, server, session = make_world()

    def client(env):
        for _ in range(50):
            yield from session.get(("server", 80), "/seq")

    env.process(client(env))
    env.run()
    assert server.requests.count == 50


# -- the response watchdog ------------------------------------------------------


def test_a_response_that_never_comes_ends_the_request():
    """The server takes the request and never answers: nothing is left
    unacknowledged on the client's connection, so only the response
    watchdog can end the wait.  The request's ACK is progress, so the
    first firing restarts it; the second aborts the connection and the
    request raises ``HttpRequestError`` two deadlines after the watchdog
    was armed.  The next request dials a fresh connection."""
    never = {}

    def handler(request):
        if request.path == "/lost":
            never["event"] = event = env_holder["env"].event()
            yield event  # nobody ever triggers it
        return HttpResponse(status=200, body=b"ok")

    env_holder = {}
    env, net, server, session = make_world(handler=handler, service_time=0.0)
    env_holder["env"] = env
    session.RESPONSE_TIMEOUT_S = 30.0
    out = {}

    def client(env):
        t0 = env.now
        try:
            yield from session.get(("server", 80), "/lost")
        except HttpRequestError as exc:
            out["error"] = str(exc)
            out["waited"] = env.now - t0
        assert session._conns == {}  # the aborted connection is dropped
        response = yield from session.get(("server", 80), "/after")
        out["after"] = response.body

    env.process(client(env))
    env.run(until=500)
    assert "no response within 30.0 s" in out["error"]
    # armed once the connection was up, one handshake RTT after t0
    assert 60.0 < out["waited"] < 60.1
    assert out["after"] == b"ok"


def test_the_watchdog_restarts_on_progress_and_is_one_timer_per_connection():
    """Responses that each take most of a deadline keep the connection:
    a completed response restarts the watchdog, so only a wait with no
    response in between expires.  Requests do not push timers of their
    own: one armed watchdog covers every request until it fires."""

    def handler(request):
        yield env_holder["env"].timeout(20.0)
        return HttpResponse(status=200, body=request.path.encode())

    env_holder = {}
    env, net, server, session = make_world(handler=handler, service_time=0.0)
    env_holder["env"] = env
    session.RESPONSE_TIMEOUT_S = 30.0
    armed = []
    real_arm = session._arm_watchdog

    def counting_arm(entry):
        armed.append(env.now)
        real_arm(entry)

    session._arm_watchdog = counting_arm
    bodies = []

    def client(env):
        for i in range(4):  # 80 s of back-to-back 20 s responses
            response = yield from session.get(("server", 80), f"/{i}")
            bodies.append(response.body)

    env.process(client(env))
    env.run()
    assert bodies == [b"/0", b"/1", b"/2", b"/3"]
    assert session.request_count == 4 and len(session._conns) == 1
    # armed by the first request, restarted at 30 s and 60 s on progress
    assert [round(t) for t in armed] == [0, 30, 60]


def test_the_watchdog_leaves_a_request_tcp_still_delivers_to_tcp():
    """A 200 s partition swallows a POST on a link whose RTO is 0.5 s.
    TCP keeps retransmitting it (its retry limit is ~511 RTOs away), so
    each watchdog firing finds the request unacked and restarts instead
    of presuming the response lost.  The POST gets through after the
    heal and succeeds, with the server handling it once."""
    env, net, server, session = make_world(latency=0.1)
    faults = LinkFaultInjector(net, "client", "server")
    out = {}

    def client(env):
        yield from session.get(("server", 80), "/warm")  # RTT samples
        # idle past a deadline: the watchdog's next firing is the POST's
        yield env.timeout(session.RESPONSE_TIMEOUT_S + 10.0)
        faults.partition_now()
        env.call_later(200.0, faults.heal_now)
        t0 = env.now
        response = yield from session.post(("server", 80), "/prov", b"x" * 100)
        out["body"] = response.body
        out["waited"] = env.now - t0

    env.process(client(env))
    env.run(until=1000)
    assert out["body"] == b"pong"
    assert 200.0 < out["waited"] < 2 * session.RESPONSE_TIMEOUT_S
    assert server.requests.count == 2 and session.request_count == 2
    assert len(session._conns) == 1  # the same connection throughout
