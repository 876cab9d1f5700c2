"""Backend ingest pipelining: bulk POST bodies per drained worker batch.

The pool workers hand their whole drained batch to the backend in one
``ingest_batch`` call.  For :class:`HttpBackend` that must become *one*
bulk POST (a JSON array body) instead of one request per translated
group — the ROADMAP's "backend ingest pipelining" item — while a batch
of one keeps the bare-object body and :class:`CallableBackend` keeps
delivering group by group.
"""

import json

from repro.core import CallableBackend, HttpBackend, ProvLightServer
from repro.http import HttpResponse, HttpServer
from repro.net import Network
from repro.simkernel import Environment
from ..waiting import ingest, outcome


def make_http_world():
    env = Environment()
    net = Network(env, seed=5)
    net.add_host("cloud")
    net.add_host("api")
    net.connect("cloud", "api", bandwidth_bps=1e9, latency_s=0.002)
    bodies = []

    def handler(request):
        bodies.append(request.body)
        return HttpResponse(status=201, reason="Created")

    HttpServer(net.hosts["api"], 5000, handler, workers=8)
    backend = HttpBackend(net.hosts["cloud"], ("api", 5000))
    return env, net, backend, bodies


def test_http_backend_batch_emits_one_bulk_post():
    env, net, backend, bodies = make_http_world()
    groups = [{"a": 1}, {"b": 2}, {"c": 3}]

    def scenario(env):
        yield from ingest(env, backend, groups)

    env.process(scenario(env))
    env.run()
    assert len(bodies) == 1  # the whole batch pipelined into one request
    assert json.loads(bodies[0].decode()) == groups
    assert backend.delivered.total == 3
    assert backend.requests.count == 1


def test_http_backend_single_group_batch_keeps_bare_object_body():
    env, net, backend, bodies = make_http_world()

    def scenario(env):
        yield from ingest(env, backend, [{"only": 1}])
        yield from ingest(env, backend, [{"direct": 2}])

    env.process(scenario(env))
    env.run()
    # wire-identical to the per-group path: no array framing
    assert [json.loads(b.decode()) for b in bodies] == [{"only": 1}, {"direct": 2}]


def test_callable_backend_batch_delivers_group_by_group():
    delivered = []
    backend = CallableBackend(delivered.append)
    outcomes = []
    assert backend.ingest_batch([{"x": 1}, {"y": 2}], outcomes.append) is None
    assert outcomes == [None]  # synchronous: reported inline
    assert delivered == [{"x": 1}, {"y": 2}]


def test_worker_drained_batch_pipelines_into_fewer_posts():
    """End to end: a burst of grouped publishes drains into the worker as
    a batch, and the HTTP backend sees fewer POSTs than groups."""
    env, net, backend, bodies = make_http_world()
    server = ProvLightServer(net.hosts["cloud"], backend)
    net.add_host("edge")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)

    env.process(_burst(env, server))
    env.run()
    records = []
    for body in bodies:
        payload = json.loads(body.decode())
        records.extend(payload if isinstance(payload, list) else [payload])
    assert len(records) == 12
    assert len(bodies) < 12  # pipelining actually coalesced requests


def _burst(env, server):
    """Publish 12 single-record payloads back-to-back through a raw
    MQTT-SN client so every knob but the backend stays out of the way."""
    from repro.core import encode_payload
    from repro.mqttsn import MqttSnClient

    yield from server.pool.attach("provlight/edge/data")
    net_host = server.host.network.hosts["edge"]
    client = MqttSnClient(net_host, "edge-raw", server.endpoint)
    yield from client.connect()
    tid = yield from client.register("provlight/edge/data")
    yield env.timeout(0.5)
    done = []
    for i in range(12):
        record = {
            "kind": "task_end", "task_id": f"t{i}", "workflow_id": 1,
            "transformation_id": 0, "time": float(i),
            "data": [{"id": f"out{i}", "attributes": {"i": i}}],
        }
        event, on_done = outcome(env)
        client.publish_nowait(tid, encode_payload(record), qos=1, on_done=on_done)
        done.append(event)
    for event in done:
        yield event
