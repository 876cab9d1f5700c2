"""Backend resilience: retry policy, circuit breaker, spill, supervision.

Covers the fault-tolerant server plane's backend edge: transient POST
failures retry with backoff and trip the breaker; an open breaker makes
ingest spill into the bounded queue instead of blocking a worker; the
drain empties the spill after recovery (shedding oldest-first at the
bound); request timeouts surface as retryable :class:`BackendTimeout`;
and a crashed translator work loop is restarted by its supervisor with
its unacked batch requeued.
"""

import pytest

from repro.core import (
    BackendError,
    BackendTimeout,
    CallableBackend,
    CircuitBreaker,
    HttpBackend,
    ProvLightServer,
    RetryPolicy,
    RetryableBackendError,
    ServerConfig,
)
from repro.http import HttpRequestError, HttpResponse, HttpServer
from repro.net import LinkFaultInjector, Network
from repro.simkernel import Environment


def make_http_world(seed=5, status=None, handler=None, **backend_kwargs):
    """cloud -> api link with a scriptable HTTP endpoint.

    ``status`` may be an int (every response) or a list consumed one
    response at a time (the last value repeats).
    """
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    net.add_host("api")
    net.connect("cloud", "api", bandwidth_bps=1e9, latency_s=0.002)
    bodies = []
    script = list(status) if isinstance(status, (list, tuple)) else None

    def default_handler(request):
        bodies.append(request.body)
        if script is not None:
            code = script.pop(0) if len(script) > 1 else script[0]
        else:
            code = status if status is not None else 201
        return HttpResponse(status=code, reason="scripted")

    HttpServer(net.hosts["api"], 5000, handler or default_handler, workers=8)
    backend = HttpBackend(net.hosts["cloud"], ("api", 5000), **backend_kwargs)
    return env, net, backend, bodies


# ------------------------------------------------------------ retry policy

def test_retry_policy_classifies_transient_vs_fatal():
    policy = RetryPolicy()
    assert policy.classify(RetryableBackendError("503"))
    assert policy.classify(BackendTimeout("slow"))
    assert policy.classify(HttpRequestError("reset"))  # a ConnectionError
    assert not policy.classify(BackendError("400"))
    assert not policy.classify(ValueError("bug"))


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(base_s=0.1, factor=2.0, max_s=0.5, jitter=0.0)
    delays = [policy.delay(a) for a in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# --------------------------------------------------------- breaker automaton

def test_breaker_closed_to_open_to_half_open_to_closed():
    env = Environment()
    breaker = CircuitBreaker(env, failure_threshold=3, reset_timeout_s=1.0)
    assert breaker.state == CircuitBreaker.CLOSED
    for _ in range(2):
        breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED  # below threshold
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.opens.count == 1
    assert not breaker.allow()

    env.run(until=1.0)  # advance the clock past reset_timeout_s
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert breaker.allow()       # exactly one probe gets through
    assert not breaker.allow()   # concurrent callers stay rejected
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED


def test_breaker_half_open_failure_reopens():
    env = Environment()
    breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout_s=0.5)
    breaker.record_failure()
    env.run(until=0.5)
    assert breaker.allow()
    breaker.record_failure()  # the probe failed
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.opens.count == 2
    assert breaker.time_until_probe() == pytest.approx(0.5)


def test_breaker_success_resets_failure_streak():
    env = Environment()
    breaker = CircuitBreaker(env, failure_threshold=2)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED


# ------------------------------------------------------- retries and spill

def test_transient_5xx_retries_then_succeeds():
    env, net, backend, bodies = make_http_world(
        status=[503, 503, 201],
        retry=RetryPolicy(max_attempts=4, base_s=0.01, jitter=0.0),
    )

    def scenario(env):
        yield from backend.ingest({"x": 1})

    env.process(scenario(env))
    env.run()
    assert len(bodies) == 3  # two failed attempts + the success
    assert backend.retries.count == 2
    assert backend.delivered.count == 1
    assert backend.spilled.count == 0


def test_fatal_4xx_raises_unretried():
    env, net, backend, bodies = make_http_world(status=400)
    errors = []

    def scenario(env):
        try:
            yield from backend.ingest({"x": 1})
        except BackendError as exc:
            errors.append(exc)

    env.process(scenario(env))
    env.run()
    assert len(bodies) == 1  # a rejection is not worth a second attempt
    assert len(errors) == 1
    assert not isinstance(errors[0], RetryableBackendError)
    assert backend.retries.count == 0


def make_outage_world(until_s, **backend_kwargs):
    """Backend answering 503 until sim time ``until_s``, 201 afterwards."""
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("cloud")
    net.add_host("api")
    net.connect("cloud", "api", bandwidth_bps=1e9, latency_s=0.002)
    ok_bodies = []

    def handler(request):
        if env.now < until_s:
            return HttpResponse(status=503, reason="down")
        ok_bodies.append(request.body)
        return HttpResponse(status=201, reason="Created")

    HttpServer(net.hosts["api"], 5000, handler, workers=8)
    backend = HttpBackend(net.hosts["cloud"], ("api", 5000), **backend_kwargs)
    return env, net, backend, ok_bodies


def test_down_backend_trips_breaker_and_spills_then_drains():
    """Outage: retries exhaust into a spill, the breaker opens so later
    ingests spill without touching the wire, and after the backend heals
    the drain delivers everything."""
    env, net, backend, ok_bodies = make_outage_world(
        until_s=1.0,
        retry=RetryPolicy(max_attempts=2, base_s=0.02, jitter=0.0),
    )
    backend.breaker = CircuitBreaker(env, failure_threshold=2, reset_timeout_s=0.3)

    def scenario(env):
        yield from backend.ingest({"x": 1})   # retries exhaust -> spill
        assert backend.breaker.state != CircuitBreaker.CLOSED
        before = backend.retries.count
        yield from backend.ingest({"x": 2})   # breaker open -> spill fast
        assert backend.retries.count == before  # no wire attempt made
        assert backend.pending_spill == 2

    env.process(scenario(env))
    env.run(until=60)
    assert backend.spilled.count == 2
    assert backend.spill_drained.count == 2
    assert backend.pending_spill == 0
    assert backend.delivered.count == 2
    assert backend.shed.count == 0
    assert len(ok_bodies) == 2  # both records reached the healed backend


def test_spill_bound_sheds_oldest_first():
    env, net, backend, ok_bodies = make_outage_world(
        until_s=1.0,
        retry=RetryPolicy(max_attempts=1, base_s=0.01, jitter=0.0),
        spill_limit=2,
    )
    backend.breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout_s=0.2)

    def scenario(env):
        for i in range(4):
            yield from backend.ingest({"i": i})
            yield env.timeout(0.01)

    env.process(scenario(env))
    env.run(until=60)
    assert backend.shed.count == 2  # the two oldest made room
    assert backend.spill_drained.count == 2
    # the freshest window survived the outage
    import json
    delivered = [json.loads(b.decode())["i"] for b in ok_bodies]
    assert delivered == [2, 3]


def test_drainer_parks_on_a_permanently_dead_backend():
    """The drain loop self-terminates after drain_max_probes misses, so a
    dead backend cannot keep the event heap alive forever."""
    env, net, backend, bodies = make_http_world(
        retry=RetryPolicy(max_attempts=1, base_s=0.01, jitter=0.0),
        drain_max_probes=3,
    )
    backend.breaker = CircuitBreaker(env, failure_threshold=1, reset_timeout_s=0.1)
    faults = LinkFaultInjector(net, "cloud", "api")
    faults.partition_now()

    def scenario(env):
        yield from backend.ingest({"x": 1})

    env.process(scenario(env))
    env.run()  # terminates: the drainer gave up
    assert backend.pending_spill == 1  # still parked, not lost


# ----------------------------------------------------------------- timeout

def test_slow_backend_times_out_as_retryable():
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("cloud")
    net.add_host("api")
    net.connect("cloud", "api", bandwidth_bps=1e9, latency_s=0.002)

    def slow_handler(request):
        yield env.timeout(5.0)
        return HttpResponse(status=201, reason="finally")

    HttpServer(net.hosts["api"], 5000, slow_handler, workers=2)
    backend = HttpBackend(
        net.hosts["cloud"], ("api", 5000), timeout_s=0.5,
        retry=RetryPolicy(max_attempts=1),
    )
    caught = []

    def scenario(env):
        started = env.now
        yield from backend.ingest({"x": 1})
        caught.append(env.now - started)

    env.process(scenario(env))
    env.run(until=60)
    # the timed-out request spilled (retries exhausted) without waiting
    # out the 5s handler
    assert backend.spilled.count >= 1
    assert backend.retries.count >= 1


def test_timeout_validation():
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    with pytest.raises(ValueError):
        HttpBackend(net.hosts["cloud"], ("api", 5000), timeout_s=0.0)
    with pytest.raises(ValueError):
        HttpBackend(net.hosts["cloud"], ("api", 5000), spill_limit=0)


# ------------------------------------------------------ worker supervision

def make_server_world(seed=7, workers=2):
    from repro.device import A8M3, Device

    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("cloud")
    net.add_host("edge", device=Device(env, A8M3, name="edge-dev"))
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    received = []
    server = ProvLightServer(
        net.hosts["cloud"], CallableBackend(received.extend),
        config=ServerConfig(workers=workers),
    )
    return env, net, server, received


def test_crashed_worker_restarts_and_requeues():
    from repro.core import Data, ProvLightClient, Task, Workflow

    env, net, server, received = make_server_world()
    worker_holder = {}

    def scenario(env):
        worker = yield from server.pool.attach("conf/#")
        worker_holder["w"] = worker
        client = ProvLightClient(
            net.hosts["edge"].device, server.endpoint, "conf/edge/data"
        )
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(3):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"x": [1.0] * 4})])
            yield env.timeout(0.05)
            yield from task.end([Data(f"out{i}", 1, {"y": [2.0] * 4})])
        yield from wf.end(drain=True)

    def chaos(env):
        yield env.timeout(0.2)
        worker_holder["w"].crash()

    env.process(scenario(env))
    env.process(chaos(env))
    env.run(until=60)
    worker = worker_holder["w"]
    assert worker.crashes.count == 1
    assert worker.restarts.count == 1
    assert server.pool.crashes == 1
    assert server.pool.restarts == 1
    # nothing lost: 2 workflow events + 3 x (begin + end), exactly once
    assert server.records_ingested.total == 8
    assert worker.queued == 0


def test_repeated_crashes_escalate_then_reset_backoff():
    env, net, server, received = make_server_world(workers=1)
    worker = server.pool.workers[0]
    worker.restart_jitter = 0.0

    def chaos(env):
        for _ in range(3):
            worker.crash()
            yield env.timeout(0.01)

    env.process(chaos(env))
    env.run(until=30)
    assert worker.crashes.count == 3
    # crashes landing during the restart backoff are absorbed: the
    # worker comes back once, not once per overlapping crash
    assert worker.restarts.count == 1
    assert worker.last_failure is not None
