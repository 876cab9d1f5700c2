"""The ingest front every capture sink shares, and its per-transport contract.

``docs/durability.md`` states, per transport, where durability ends and
what a client sees on a malformed payload, a duplicate and a backend
failure.  Two tests here pin that table: a backend that fails one
ingest on each transport, and a differential run that must leave the
same DfAnalyzer table contents whichever transport carried it.
"""

import pytest

from repro.baselines import ProvLakeClient, decode_json_records
from repro.capture import CaptureConfig, create_client, deploy_capture_sink
from repro.capture.envelope import wrap_payload
from repro.core import (
    CallableBackend,
    Data,
    ProvLightServer,
    ServerConfig,
    Task,
    Workflow,
    encode_payload,
)
from repro.core.translator import IngestFront, to_dfanalyzer
from repro.device import A8M3, Device
from repro.dfanalyzer import DfAnalyzerService
from repro.net import Network
from repro.simkernel import Environment

TRANSPORTS = ["mqttsn", "coap", "http"]
TOPIC = "provlight/edge/data"


def record(i):
    return {"kind": "task_begin", "workflow_id": 1, "task_id": i,
            "transformation_id": 0, "dependencies": [], "time": float(i),
            "data": []}


# -- the front on its own ------------------------------------------------------

def test_front_classifies_records_duplicates_and_malformed_payloads():
    env = Environment()
    front = IngestFront(metrics=env.metrics)
    first = wrap_payload("c", 1, encode_payload(record(1)))

    key, records, translated = front.admit(first)
    assert key == ("c", 1) and records == [record(1)]
    assert translated == to_dfanalyzer(records)
    # admitted but not yet accepted: only the caller's batch knows it
    assert front.admit(first, batch={("c", 1)}) is None
    assert front.admit(first) is not None
    front.accepted([(key, records, translated)])
    assert front.admit(first) is None  # marked once the backend accepted

    assert front.admit(encode_payload(record(2)))[0] is None  # bare payload
    assert front.admit(b"PE\x09\x00") is None  # unknown envelope version
    assert front.admit(b"not a payload") is None
    assert (front.ingested.count, front.duplicates.count,
            front.malformed.count, front.failures.count) == (1, 2, 2, 0)
    # the front counts into its owner's registry
    assert env.metrics.summed("front", "duplicates").count == 2


def test_only_the_http_collector_takes_a_decoder():
    """A baseline's JSON body is malformed to the ProvLight front, and no
    MQTT-SN or CoAP sink can be given the baselines' decoder."""
    env = Environment()
    cloud = Network(env, seed=1).add_host("cloud")
    for transport in ("mqttsn", "coap"):
        with pytest.raises(ValueError, match="http collector only"):
            deploy_capture_sink(transport, cloud, lambda translated: None,
                                decode=decode_json_records)
    body = b'{"messages": [{"prov_obj": "workflow"}]}'
    assert decode_json_records(body)[0] == [{"prov_obj": "workflow"}]
    front = IngestFront(metrics=env.metrics)
    assert front.admit(body) is None and front.malformed.count == 1


def test_a_pool_batch_failing_midway_marks_its_delivered_prefix():
    """Three payloads drained as one worker batch; the backend callable
    raises on its 2nd call.  The group delivered before the failure is
    marked and not requeued, so no record reaches the backend twice."""
    env = Environment()
    net = Network(env, seed=1)
    net.add_host("cloud")
    ingested, calls = [], []

    def ingest(translated):
        calls.append(translated)
        if len(calls) == 2:
            raise RuntimeError("backend down")
        ingested.extend(r["task_id"] for r in translated)

    server = ProvLightServer(net.hosts["cloud"], CallableBackend(ingest),
                             config=ServerConfig(workers=1))
    worker = server.pool.workers[0]
    for i in range(3):
        wire = wrap_payload("edge", i + 1, encode_payload(record(i)))
        worker._inbox.put_nowait((TOPIC, wire))
    env.run(until=10)
    assert ingested == [0, 1, 2]
    front = server.front
    assert (front.duplicates.count, front.failures.count) == (0, 1)
    assert front.ingested.count == 3
    assert len(env.metrics.events("crash-worker")) == 1 and worker.queued == 0


# -- a world with one device per run -------------------------------------------

def run_workflow(transport, durable, tmp_path, ingest, n_tasks=3, seed=5):
    """One device captures ``2 + 2 * n_tasks`` records over ``transport``
    into ``ingest``; ``"provlake"`` is the ProvLake client POSTing to the
    HTTP collector.  Returns ``(env, client, sink, done)``; an HTTP
    collector's response codes are in ``done["statuses"]``."""
    env = Environment()
    net = Network(env, seed=seed)
    dev = Device(env, A8M3, name="edge-dev")
    net.add_host("edge", device=dev)
    cloud = net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e6, latency_s=0.02)
    done = {}
    if transport == "provlake":
        sink, endpoint = deploy_capture_sink("http", cloud, ingest,
                                             decode=decode_json_records)
        client = ProvLakeClient(dev, endpoint)
    else:
        sink, endpoint = deploy_capture_sink(transport, cloud, ingest)
        config = CaptureConfig(transport=transport, durable=durable,
                               journal_dir=str(tmp_path), reconnect_base_s=0.2,
                               reconnect_max_s=1.0)
        client = create_client(dev, endpoint, TOPIC, config)
    if transport in ("http", "provlake"):
        handle = sink.handler

        def recorded(request):
            response = handle(request)
            done.setdefault("statuses", []).append(response.status)
            return response

        sink.handler = recorded

    def proc(env):
        if transport == "mqttsn":
            yield from sink.pool.attach("provlight/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(n_tasks):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"x": [float(i)] * 4})])
            yield env.timeout(0.3)
            yield from task.end([Data(f"out{i}", 1, {"y": i, "tag": f"t{i}"},
                                      derivations=[f"in{i}"])])
        yield from wf.end(drain=durable)
        done["at"] = env.now

    env.process(proc(env))
    env.run(until=600)
    return env, client, sink, done


def record_key(record):
    return (record["type"], record.get("task_id"), record.get("status"),
            record.get("event"))


def stored_keys(translated):
    """Keys of the records one backend call stores: translator records,
    or the messages of a ProvLake JSON body."""
    if isinstance(translated, dict):
        return [(m["prov_obj"], m.get("task", {}).get("id"), m["act_type"])
                for m in translated["messages"]]
    return [record_key(r) for r in translated]


BACKEND_FAILURE_CASES = [(t, d) for t in TRANSPORTS for d in (False, True)] + [
    ("provlake", False)]


@pytest.mark.parametrize("transport,durable", BACKEND_FAILURE_CASES, ids=[
    f"{t}-{'durable' if d else 'besteffort'}" for t, d in BACKEND_FAILURE_CASES])
def test_a_backend_that_fails_one_ingest(tmp_path, transport, durable):
    """The backend raises on its 2nd call.  The MQTT-SN pool requeues
    the batch; HTTP answers 503 and CoAP 5.03, so a durable client
    replays the record and a best-effort one (the ProvLake baseline
    too) counts it lost."""
    ingested = []
    calls = []

    def ingest(translated):
        calls.append(translated)
        if len(calls) == 2:
            raise RuntimeError("backend down")
        ingested.extend(stored_keys(translated))

    env, client, sink, done = run_workflow(transport, durable, tmp_path, ingest)
    assert "at" in done, "the workflow never finished"
    assert client.records_captured.count == 8
    assert sink.front.failures.count == 1
    assert len(set(ingested)) == len(ingested)  # nothing ingested twice
    lost = 0 if transport == "mqttsn" or durable else 1
    assert len(ingested) == 8 - lost
    assert sink.front.ingested.total == 8 - lost
    if transport in ("http", "provlake"):
        assert client.transport.capture_errors.count == 1
        assert done["statuses"].count(503) == 1
    if durable:
        assert client.journal.pending == 0
        if transport != "mqttsn":
            assert client.replayed.count >= 1


def test_the_baseline_collector_acks_a_body_that_is_not_json(tmp_path):
    """A baseline body the JSON decoder rejects is counted malformed and
    answered 201, so the library does not send it again."""
    env, client, sink, done = run_workflow("provlake", False, tmp_path,
                                           lambda translated: None, n_tasks=1)
    response = {}

    def post(env):
        response["r"] = yield from client.transport.session.post(
            client.server, client.path, b"not json")

    env.process(post(env))
    env.run(until=env.now + 60)
    assert response["r"].status == 201 and done["statuses"][-1] == 201
    assert sink.front.malformed.count == 1
    assert sink.front.ingested.total == 4


def table_contents(service):
    """Every table's rows as a sorted list, timestamps left out: the
    transports differ in timing, never in what they store."""
    timing = {"time", "time_begin", "time_end"}
    return {
        name: sorted(
            sorted((k, repr(v)) for k, v in row.items() if k not in timing)
            for row in service.store.table(name).rows()
        )
        for name in service.store.table_names
    }


def test_every_transport_stores_the_same_provenance(tmp_path):
    """One workload and seed over every transport, best-effort and
    durable: the backend ends with the same table contents each time."""
    contents = {}
    for transport in TRANSPORTS:
        for durable in (False, True):
            service = DfAnalyzerService(metrics=Environment().metrics)
            run_dir = tmp_path / f"{transport}-{durable}"
            run_dir.mkdir()
            _, client, sink, done = run_workflow(transport, durable, run_dir,
                                                 service.ingest)
            assert "at" in done
            assert sink.front.ingested.total == client.records_captured.count == 8
            contents[transport, durable] = table_contents(service)
    reference = contents["mqttsn", False]
    assert len(reference["tasks"]) == 3 and len(reference["datasets"]) == 6
    for run, tables in contents.items():
        assert tables == reference, run
