"""Tests for the CoAP codec, endpoints and ProvLight-over-CoAP transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coap import (
    CODE_CHANGED,
    CODE_NOT_FOUND,
    CODE_POST,
    CODE_SERVICE_UNAVAILABLE,
    TYPE_ACK,
    TYPE_CON,
    TYPE_NON,
    CoapClient,
    CoapError,
    CoapMessage,
    CoapServer,
    CoapServerError,
    CoapTimeout,
    ProvLightCoapServer,
    code_str,
)
from repro.capture import CaptureConfig, create_client
from repro.coap.transport import DEFAULT_CAPTURE_PATH
from repro.core import CallableBackend
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment


# -- codec ---------------------------------------------------------------


ROUNDTRIP = [
    CoapMessage(mtype=TYPE_CON, code=CODE_POST, message_id=1,
                uri_path=["prov"], content_format=42, payload=b"data"),
    CoapMessage(mtype=TYPE_NON, code=CODE_POST, message_id=65535,
                uri_path=["a", "b", "c"], payload=b"\x00\xff"),
    CoapMessage(mtype=TYPE_ACK, code=CODE_CHANGED, message_id=7, token=b"tok"),
    CoapMessage(mtype=TYPE_CON, code=CODE_POST, message_id=2,
                uri_path=["x" * 20], payload=b"p" * 300),
    CoapMessage(),  # empty CON
]


@pytest.mark.parametrize("message", ROUNDTRIP, ids=lambda m: repr(m)[:30])
def test_roundtrip(message):
    assert CoapMessage.decode(message.encode()) == message


def test_code_notation():
    assert code_str(CODE_POST) == "0.02"
    assert code_str(CODE_CHANGED) == "2.04"
    assert code_str(CODE_NOT_FOUND) == "4.04"


def test_header_is_four_bytes_minimum():
    assert CoapMessage().wire_size == 4


def test_decode_rejects_garbage():
    with pytest.raises(CoapError):
        CoapMessage.decode(b"\x01")
    with pytest.raises(CoapError):
        CoapMessage.decode(b"\xc0\x00\x00\x01")  # version 3
    with pytest.raises(CoapError):
        CoapMessage.decode(bytes([0x49, 0, 0, 1]))  # token length 9
    good = ROUNDTRIP[0].encode()
    with pytest.raises(CoapError):
        CoapMessage.decode(good[:-5] + b"\xff")  # marker, empty payload


def test_encode_validation():
    with pytest.raises(CoapError):
        CoapMessage(token=b"x" * 9).encode()
    with pytest.raises(CoapError):
        CoapMessage(mtype=7).encode()


@given(st.binary(min_size=0, max_size=60))
@settings(max_examples=150, deadline=None)
def test_property_decode_never_crashes(data):
    try:
        CoapMessage.decode(data)
    except CoapError:
        pass


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=30), max_size=4),
       st.binary(max_size=100))
@settings(max_examples=100, deadline=None)
def test_property_roundtrip_paths_payloads(path, payload):
    message = CoapMessage(mtype=TYPE_CON, code=CODE_POST, message_id=3,
                          uri_path=path, payload=payload)
    assert CoapMessage.decode(message.encode()) == message


# -- endpoints ---------------------------------------------------------------


def make_world(loss=0.0, seed=2):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("edge")
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.02, loss=loss)
    server = CoapServer(net.hosts["cloud"])
    client = CoapClient(net.hosts["edge"], ("cloud", 5683), ack_timeout_s=0.3)
    return env, net, server, client


def test_confirmable_post_roundtrip():
    env, net, server, client = make_world()
    server.route("/prov", lambda path, payload, reply: reply(CODE_CHANGED, b"ok"))
    server.route("/sink", lambda path, payload, reply: reply(CODE_CHANGED))
    out = {}

    def run(env):
        t0 = env.now
        response = yield from client.post("/prov", b"hello coap")
        out["rtt"] = env.now - t0
        out["code"] = response.code

    env.process(run(env))
    env.run()
    assert out["code"] == CODE_CHANGED
    assert out["rtt"] == pytest.approx(0.0405, rel=0.1)  # RTT + service


def test_unknown_path_returns_404():
    env, net, server, client = make_world()
    out = {}

    def run(env):
        response = yield from client.post("/nowhere", b"x")
        out["code"] = response.code

    env.process(run(env))
    env.run()
    assert out["code"] == CODE_NOT_FOUND


def test_non_confirmable_is_fire_and_forget():
    env, net, server, client = make_world()
    got = []
    server.route("/prov", lambda path, payload, reply: (got.append(payload), reply(CODE_CHANGED)))

    def run(env):
        result = yield from client.post("/prov", b"non", confirmable=False)
        assert result is None
        yield env.timeout(1.0)

    env.process(run(env))
    env.run()
    assert got == [b"non"]


def test_retransmission_recovers_from_loss():
    env, net, server, client = make_world(loss=0.4, seed=9)
    got = []
    server.route("/prov", lambda path, payload, reply: (got.append(payload), reply(CODE_CHANGED)))
    completed = []

    def run(env):
        for i in range(5):
            yield from client.post("/prov", b"m%d" % i)
            completed.append(i)

    env.process(run(env))
    env.run()
    assert completed == list(range(5))
    # dedup: each payload delivered to the handler exactly once
    assert sorted(got) == [b"m%d" % i for i in range(5)]


def test_duplicate_con_is_deduplicated():
    env, net, server, client = make_world()
    calls = []
    server.route("/prov", lambda path, payload, reply: (calls.append(1), reply(CODE_CHANGED)))

    def run(env):
        # send the same message id twice, by hand
        message = CoapMessage(mtype=TYPE_CON, code=CODE_POST, message_id=77,
                              uri_path=["prov"], payload=b"dup")
        client.sock.sendto(message.encode(), client.server)
        client.sock.sendto(message.encode(), client.server)
        yield env.timeout(1.0)

    env.process(run(env))
    env.run()
    assert len(calls) == 1
    assert server.duplicates.count == 1


def test_a_deferred_reply_holds_back_retransmissions():
    """The handler replies 1 s after the request, while the client
    retransmits every 0.3 s and more: the copies are counted duplicates,
    never dispatched and never answered before the reply; the one ACK
    carries the handler's code."""
    env, net, server, client = make_world()
    calls, acks = [], []

    def handler(path, payload, reply):
        calls.append(env.now)
        env.call_later(1.0, reply, CODE_CHANGED, b"done")

    server.route("/prov", handler)
    sent = server.sock.sendto

    def spy(data, dest):
        acks.append(env.now)
        sent(data, dest)

    server.sock.sendto = spy
    out = {}

    def run(env):
        response = yield from client.post("/prov", b"slow")
        out["at"], out["payload"] = env.now, response.payload

    env.process(run(env))
    env.run()
    assert len(calls) == 1
    assert server.duplicates.count >= 2
    assert acks[0] == pytest.approx(calls[0] + 1.0)
    assert out["payload"] == b"done" and out["at"] == pytest.approx(acks[0] + 0.02)


def test_a_server_error_fails_the_con():
    env, net, server, client = make_world()
    server.route("/prov", lambda path, payload, reply: reply(CODE_SERVICE_UNAVAILABLE))
    out = {}

    def run(env):
        try:
            yield from client.post("/prov", b"x")
        except CoapServerError as exc:
            out["error"] = str(exc)

    env.process(run(env))
    env.run()
    assert out["error"] == "CON 1 answered 5.03"


def test_timeout_after_max_retransmit():
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("edge")
    net.add_host("void")
    net.connect("edge", "void", bandwidth_bps=1e9, latency_s=0.01)
    client = CoapClient(net.hosts["edge"], ("void", 5683),
                        ack_timeout_s=0.05, max_retransmit=2)
    failures = []

    def run(env):
        try:
            yield from client.post("/prov", b"x")
        except CoapTimeout as exc:
            failures.append(str(exc))

    env.process(run(env))
    env.run()
    assert len(failures) == 1


# -- ProvLight over CoAP ------------------------------------------------------


def make_capture_world(group_size=0):
    env = Environment()
    net = Network(env, seed=3)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    sink = []
    server = ProvLightCoapServer(net.hosts["cloud"], CallableBackend(sink.extend))
    client = create_client(dev, server.endpoint, DEFAULT_CAPTURE_PATH,
                           CaptureConfig(transport="coap", group_size=group_size))
    return env, net, dev, server, client, sink


def test_capture_over_coap_end_to_end():
    from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

    env, net, dev, server, client, sink = make_capture_world()
    config = SyntheticWorkloadConfig(number_of_tasks=5, task_duration_s=0.1)
    result = {}

    def scenario(env):
        yield from synthetic_workload(env, client, config,
                                      rng=np.random.default_rng(1), result=result)
        yield from client.drain()
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    finished = [r for r in sink if r.get("status") == "FINISHED"]
    assert len(finished) == 5
    # capture stayed asynchronous: ~4ms per call against 0.1s tasks
    overhead = result["elapsed"] / config.nominal_duration_s() - 1
    assert overhead < 0.12


def test_coap_transport_uses_fewer_packets_than_qos2():
    """CON/ACK is a 2-packet exchange; MQTT-SN QoS 2 needs 4."""
    from repro.core import ProvLightServer
    from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

    config = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.05)

    def run(transport):
        env = Environment()
        net = Network(env, seed=4)
        dev = Device(env, A8M3)
        net.add_host("edge", device=dev)
        net.add_host("cloud")
        net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
        sink = []
        if transport == "coap":
            server = ProvLightCoapServer(net.hosts["cloud"], CallableBackend(sink.extend))
            client = create_client(dev, server.endpoint, DEFAULT_CAPTURE_PATH,
                                   CaptureConfig(transport="coap"))
        else:
            server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
            client = create_client(dev, server.endpoint, "p/edge")

        def scenario(env):
            if transport == "mqttsn":
                yield from server.pool.attach("p/#")
            yield from synthetic_workload(env, client, config,
                                          rng=np.random.default_rng(2))
            yield from client.drain()
            yield env.timeout(10)

        env.process(scenario(env))
        env.run()
        return dev.radio.tx.total + dev.radio.rx.total, len(sink)

    coap_bytes, coap_records = run("coap")
    mqtt_bytes, mqtt_records = run("mqttsn")
    assert coap_records == mqtt_records == 22
    assert coap_bytes < mqtt_bytes  # fewer control packets on the wire


def test_grouped_coap_capture():
    from repro.workloads import SyntheticWorkloadConfig, synthetic_workload

    env, net, dev, server, client, sink = make_capture_world(group_size=5)
    config = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.05)

    def scenario(env):
        yield from synthetic_workload(env, client, config,
                                      rng=np.random.default_rng(1))
        yield from client.drain()
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()
    finished = [r for r in sink if r.get("status") == "FINISHED"]
    assert len(finished) == 10
    assert client.messages_sent.count == 14  # 2 wf + 10 begins + 2 groups
