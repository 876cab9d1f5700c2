"""The callback translator worker against the supervised process it
replaced (``worker_oracle.py``).

Drawn schedules of inbox arrivals (fresh, duplicate and malformed
payloads), competing CPU charges, backend failures (some after part of
a batch was delivered), ``crash()`` and ``retire()`` must give the same
``(env.now, what)`` trace: every backend delivery, every crash and
restart, and at the end the CPU time billed to translation, the front's
counters and the work left queued.
"""

import dataclasses
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.server as server_module
from repro.capture.envelope import wrap_payload
from repro.core import CallableBackend, ProvLightServer, ServerConfig
from repro.core.serialization import encode_payload
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment

from .worker_oracle import ProcessTranslatorWorker

TIMES = st.sampled_from([0.0, 0.0, 0.001, 0.002, 0.005, 0.01, 0.03])
ARRIVAL = st.tuples(TIMES, st.sampled_from(["fresh", "fresh", "fresh", "dup", "bad"]))
FAULT = st.tuples(TIMES, st.sampled_from(["crash", "crash", "hog", "retire"]))


class BackendDown(Exception):
    pass


def run(worker_cls, arrivals, faults, failing, max_batch, cores):
    trace = []
    env = Environment()
    net = Network(env, seed=1)
    device = Device(env, dataclasses.replace(A8M3, cores=cores), name="cloud-dev")
    net.add_host("cloud", device=device)
    calls = [0]

    def deliver(translated):
        calls[0] += 1
        if calls[0] in failing:
            trace.append((env.now, "backend-down"))
            raise BackendDown(calls[0])
        trace.append((env.now, "ingest", repr(translated)))

    with mock.patch.object(server_module, "_TranslatorWorker", worker_cls):
        server = ProvLightServer(net.hosts["cloud"], CallableBackend(deliver),
                                 config=ServerConfig(workers=1))
    worker = server.pool.workers[0]
    worker.max_batch = max_batch
    seqs = []

    def arrive(kind):
        if kind == "bad":
            payload = b"\x00garbage"
        elif kind == "dup" and seqs:
            payload = seqs[-1]
        else:
            seq = len(seqs) + 1
            payload = wrap_payload("dev", seq, encode_payload(
                {"kind": "task_begin", "workflow_id": 1, "task_id": seq,
                 "transformation_id": 0, "dependencies": [],
                 "time": float(seq), "data": []}))
            seqs.append(payload)
        worker._on_message("provlight/dev/data", payload)

    def fault(kind):
        if kind == "crash":
            worker.crash()
        elif kind == "retire":
            worker.retire()
        else:
            device.cpu.run_async(io_busy_s=0.004, tag="hog")

    at = 0.0
    for delay, kind in arrivals:
        at += delay
        env.call_later(at, arrive, kind)
    at = 0.0
    retired = False
    for delay, kind in faults:
        at += delay
        if kind == "retire":
            if retired:
                continue
            retired = True
        if kind == "crash" and retired:
            continue
        env.call_later(at, fault, kind)
    env.run(until=5.0)
    trace.extend((e["t"], e["kind"]) for e in env.metrics.events())
    front = server.front
    trace.append((env.now, "end", round(device.cpu.busy_time("translator"), 12),
                  front.ingested.count, front.ingested.total,
                  front.duplicates.count, front.malformed.count,
                  front.failures.count, worker.queued,
                  [item[1] for item in worker._requeue]))
    return trace


@settings(max_examples=150, deadline=None)
@given(
    arrivals=st.lists(ARRIVAL, min_size=1, max_size=14),
    faults=st.lists(FAULT, max_size=5),
    failing=st.sets(st.integers(1, 12), max_size=3),
    max_batch=st.sampled_from([1, 3, 64]),
    cores=st.sampled_from([1, 2]),
)
def test_callback_worker_matches_process_model(arrivals, faults, failing,
                                                max_batch, cores):
    args = (arrivals, faults, failing, max_batch, cores)
    assert (run(server_module._TranslatorWorker, *args)
            == run(ProcessTranslatorWorker, *args))


def test_a_crash_mid_batch_requeues_it_in_both_models():
    """A directed case: a crash while the batch is charged requeues it,
    and the restarted worker delivers every record once, in order."""
    args = ([(0.0, "fresh"), (0.0, "fresh"), (0.0, "fresh")],
            [(0.0005, "crash")], set(), 64, 1)
    new = run(server_module._TranslatorWorker, *args)
    assert new == run(ProcessTranslatorWorker, *args)
    ingested = [what for what in new if what[1] == "ingest"]
    assert len(ingested) == 3
    assert [what[1] for what in new if what[1] in ("crash-worker", "restart-worker")] \
        == ["crash-worker", "restart-worker"]
