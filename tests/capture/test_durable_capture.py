"""Durable capture: journal write-through, reconnect/replay, dedup.

The acceptance bar for the durability work: a simulated uplink
partition (drop, then heal) loses **zero** records and the backend
ingests each exactly once; a client killed mid-stream at an arbitrary
point resumes from its journal with the same guarantee; the supervised
sender surfaces unexpected transport errors instead of dying silently;
and a blocking ``http`` client replays from the workflow's process,
lets a transport bug surface from ``capture()`` and never counts the
record it interrupted as delivered.
"""

import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.capture import (
    CaptureConfig,
    CaptureSenderError,
    create_client,
    deploy_capture_sink,
)
from repro.capture.client import (
    STATE_CONNECTED,
    STATE_DISCONNECTED,
    STATE_RECONNECTING,
)
from repro.core import (
    CallableBackend,
    Data,
    ProvLightServer,
    ServerConfig,
    Task,
    Workflow,
)
from repro.device import A8M3, Device
from repro.net import LinkFaultInjector, Network
from repro.simkernel import Environment


def durable_config(journal_dir, **overrides):
    params = dict(
        transport="mqttsn",
        durable=True,
        journal_dir=journal_dir,
        reconnect_base_s=0.2,
        reconnect_factor=1.5,
        reconnect_max_s=1.0,
    )
    params.update(overrides)
    return CaptureConfig(**params)


def make_durable_world(journal_dir, seed=7, **config_overrides):
    """Edge device + ProvLight server + a fault injector on the uplink."""
    env = Environment()
    net = Network(env, seed=seed)
    dev = Device(env, A8M3, name="edge-dev")
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    received = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(received.extend))
    config = durable_config(journal_dir, **config_overrides)
    client = create_client(dev, server.endpoint, "conf/edge/data", config)
    client.transport.mqtt.retry_interval_s = 0.2
    faults = LinkFaultInjector(net, "edge", "cloud")
    return env, net, dev, server, client, received, faults


def capture_tasks(env, server, client, n_tasks, spacing_s=0.2, done=None,
                  drain=True):
    done = done if done is not None else {}

    def proc(env):
        if server is not None:  # the MQTT-SN server; None for http
            yield from server.pool.attach("conf/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(n_tasks):
            task = Task(i, wf)
            yield from task.begin([Data(f"in{i}", 1, {"in": [1.0] * 8})])
            yield env.timeout(spacing_s)
            yield from task.end([Data(f"out{i}", 1, {"out": [2.0] * 8},
                                      derivations=[f"in{i}"])])
        yield from wf.end(drain=drain)
        done["at"] = env.now

    done["proc"] = env.process(proc(env))
    return done


# -- the acceptance criterion: partition loses nothing, exactly once --------

def test_partition_heal_loses_zero_records_exactly_once(tmp_path):
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path)
    )
    states = []
    client.add_connection_listener(states.append)
    # cut the uplink mid-stream for 2 simulated seconds
    faults.partition_at(0.5, 2.0)
    done = capture_tasks(env, server, client, n_tasks=8)
    env.run(until=600)

    assert "at" in done, "drain never resolved after the partition healed"
    # 2 workflow events + 8 x (begin + end)
    assert client.records_captured.count == 18
    # zero loss, exactly once: every record ingested, none twice
    assert server.front.ingested.count == 18
    assert len(received) == 18
    # the outage actually exercised replay and the server-side dedup
    assert len(env.metrics.events("reconnect")) >= 1
    assert client.replayed.count >= 1
    assert server.front.duplicates.count >= 0
    assert (server.front.ingested.count + server.front.duplicates.count
            >= client.messages_sent.count)
    # journal fully acknowledged and truncated after the drain
    assert client.journal.pending == 0
    assert len(client.journal) == 0
    # the client reported the flap to its listeners
    assert STATE_RECONNECTING in states
    assert states[-1] == STATE_CONNECTED
    assert [(e["t"], e["kind"]) for e in env.metrics.events()
            if e["kind"].endswith("-link")] == [(0.5, "partition-link"),
                                                (2.5, "heal-link")]


def test_repeated_flaps_converge(tmp_path):
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path)
    )
    faults.flap(period_s=1.0, down_s=0.4, cycles=3)
    done = capture_tasks(env, server, client, n_tasks=10)
    env.run(until=600)
    assert "at" in done
    assert client.records_captured.count == 22
    assert server.front.ingested.count == 22
    assert client.journal.pending == 0
    assert len(env.metrics.events("heal-link")) == 3


def test_best_effort_client_loses_records_on_partition(tmp_path):
    """The control: without durable=True the same outage drops records
    (this is the gap the journal exists to close).  Each send that fails
    in the outage spends its QoS retry budget, then one reconnect probe,
    and the sender goes on; the first probe after the heal reconnects."""
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path), durable=False
    )
    states = []
    client.add_connection_listener(states.append)
    # long enough that at least one message exhausts its entire QoS
    # retry budget strictly inside the outage
    faults.partition_at(0.5, 4.0)
    done = capture_tasks(env, server, client, n_tasks=8, drain=False)
    env.run(until=600)
    assert "at" in done
    assert client.records_captured.count == 18
    assert server.front.ingested.count < 18
    # a failed probe inside the outage, then one after the heal
    assert states == [STATE_CONNECTED, STATE_RECONNECTING, STATE_DISCONNECTED,
                      STATE_RECONNECTING, STATE_CONNECTED]
    (heal,) = env.metrics.events("heal-link")
    (reconnect,) = env.metrics.events("reconnect")
    assert reconnect["t"] > heal["t"]


def test_best_effort_drain_resolves_when_the_server_never_returns(tmp_path):
    """A best-effort client holds no record for a session it cannot get
    back: every send into a cut that never heals spends its retry budget
    and one probe, and ``drain()`` resolves once they are all spent."""
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path), durable=False
    )
    faults.partition_at(0.5, 10_000.0)
    done = capture_tasks(env, server, client, n_tasks=8, drain=True)
    env.run(until=600)
    assert "at" in done, "a best-effort drain must not wait for a reconnect"
    assert client.records_captured.count == client.messages_sent.count == 18
    assert server.front.ingested.count < 18
    assert client.connection_state == STATE_DISCONNECTED
    assert env.metrics.events("reconnect") == []


# -- crash recovery -----------------------------------------------------------

def test_crashed_client_replays_journal_on_next_setup(tmp_path):
    """Phase 1 crashes mid-partition (client abandoned, never closed);
    phase 2 reopens the same journal and must deliver the parked
    records exactly once."""
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path)
    )
    # partition right after setup() and never heal: records pile up in
    # the journal (a boundary straggler or two may have slipped through)
    faults.partition_at(0.1, 10_000.0)
    capture_tasks(env, server, client, n_tasks=3, drain=False)
    env.run(until=60)  # crash: simply stop simulating; no close()
    assert client.records_captured.count == 8
    pending1 = client.journal.pending
    assert pending1 > 0

    # phase 2: new process, same device/topic identity, same journal dir
    env2, net2, dev2, server2, client2, received2, _ = make_durable_world(
        str(tmp_path)
    )
    # same logical backend: its dedup state survives client restarts
    server2.front.deduper = server.front.deduper
    done = {}

    def proc(env):
        yield from server2.pool.attach("conf/#")
        yield from client2.setup()  # recovers + replays the journal
        yield from client2.drain()
        done["at"] = env.now

    env2.process(proc(env2))
    env2.run(until=120)
    assert "at" in done
    assert client2.replayed.count == pending1
    # exactly once across the crash: every captured record ingested,
    # boundary stragglers deduped rather than doubled
    assert (server.front.ingested.count
            + server2.front.ingested.count) == 8
    assert client2.journal.pending == 0


def test_close_preserves_unacked_journal(tmp_path):
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path)
    )
    faults.partition_at(0.1, 10_000.0)
    capture_tasks(env, server, client, n_tasks=2, drain=False)
    env.run(until=30)
    pending = client.journal.pending
    assert pending > 0
    client.close()  # orderly close: memory freed, durable state kept
    env.run(until=31)  # let the parked sender observe the close and exit
    assert dev.memory.used("capture-buffers") == 0
    # reopen the journal directly: the entries survived
    from repro.capture import CaptureJournal
    from repro.capture.journal import journal_path_for

    j = CaptureJournal(journal_path_for(str(tmp_path), client.client_id),
                       client.client_id)
    assert j.pending == pending
    assert j.verify_chain() == len(j)
    j.close()


# -- property: kill at a random point, resume, exactly once ------------------

@given(
    kill_after_s=st.floats(min_value=0.05, max_value=4.0),
    n_tasks=st.integers(min_value=1, max_value=6),
)
# a kill during a capture's CPU charge, and one under a pending replay
# send (close() clears the replay list the recovery loop pops from)
@example(kill_after_s=0.875, n_tasks=4)
@example(kill_after_s=0.25, n_tasks=3)
@example(kill_after_s=1.76, n_tasks=3)
@settings(max_examples=12, deadline=None)
def test_kill_anywhere_resume_is_exactly_once(kill_after_s, n_tasks):
    """Kill the client at an arbitrary simulated instant — records may
    be undelivered, in flight, or delivered-but-unacked — then resume
    from the journal against the *same logical backend* (dedup state
    carries over, as it would on a long-lived server).  Every record is
    ingested exactly once."""
    with tempfile.TemporaryDirectory() as journal_dir:
        env, net, dev, server, client, received, faults = make_durable_world(
            journal_dir
        )
        # a mid-stream outage makes delivered-but-unacked windows likely
        faults.partition_at(0.3, 1.0)
        done1 = capture_tasks(env, server, client, n_tasks=n_tasks,
                              drain=False)
        env.run(until=kill_after_s)  # crash: the client stops cold here
        captured_phase1 = client.records_captured.count
        total_records = 2 + 2 * n_tasks
        # Only the *client* crashed; the server plane is long-lived.  Stop
        # the workload and the client at the kill instant (no further
        # captures or sends), then let the surviving server finish
        # ingesting what the broker had already acknowledged — a record
        # acked to the client but still inside the translator pipeline is
        # the server's responsibility, not a journal loss.
        workload = done1["proc"]
        if workload.is_alive:
            workload.defused = True
            workload.interrupt("client crash")
        client.close()  # crash-equivalent durability: journal state kept
        env.run(until=kill_after_s + 60)

        env2, net2, dev2, server2, client2, received2, _ = make_durable_world(
            journal_dir
        )
        # same logical backend: ingested set and dedup floor carry over
        server2.front.deduper = server.front.deduper
        done = {}

        def top_up(env):
            yield from server2.pool.attach("conf/#")
            yield from client2.setup()
            wf = Workflow(1, client2)
            yield from wf.begin()
            remaining = max(0, total_records - captured_phase1 - 2)
            for i in range(remaining):
                task = Task(1000 + i, wf)
                yield from task.begin([])
            yield from wf.end(drain=True)
            done["at"] = env.now

        env2.process(top_up(env2))
        env2.run(until=600)
        assert "at" in done
        ingested_total = (server.front.ingested.count
                          + server2.front.ingested.count)
        captured_total = captured_phase1 + client2.records_captured.count
        # exactly once across the crash: nothing lost, nothing doubled
        assert ingested_total == captured_total
        assert client2.journal.pending == 0


# -- sender supervision --------------------------------------------------------

def test_sender_survives_transport_raise_and_surfaces_error(tmp_path):
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path)
    )
    real_send = client.transport.send
    blowups = {"left": 2}

    def flaky_send(payload):
        if blowups["left"] > 0:
            blowups["left"] -= 1
            raise RuntimeError("injected transport bug")
        return real_send(payload)

    client.transport.send = flaky_send
    errors = []
    done = {}

    def proc(env):
        yield from server.pool.attach("conf/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(6):
            task = Task(i, wf)
            try:
                yield from task.begin([])
            except CaptureSenderError as exc:
                errors.append(exc)
            yield env.timeout(0.5)
        yield from client.drain()
        done["at"] = env.now

    env.process(proc(env))
    env.run(until=300)
    assert "at" in done
    # the injected failures were surfaced, not swallowed
    assert len(errors) >= 1
    assert "injected transport bug" in str(errors[0])
    # and the journaled entries still made it through after the restarts
    assert server.front.ingested.count == client.records_captured.count
    assert client.journal.pending == 0


def test_sender_failure_without_journal_counts_record_lost(tmp_path):
    """Best-effort client: a transport bug costs the record, surfaces
    the error, and the sender keeps servicing later captures."""
    env, net, dev, server, client, received, faults = make_durable_world(
        str(tmp_path), durable=False
    )
    real_send = client.transport.send
    blowups = {"left": 1}

    def flaky_send(payload):
        if blowups["left"] > 0:
            blowups["left"] -= 1
            raise RuntimeError("injected transport bug")
        return real_send(payload)

    client.transport.send = flaky_send
    errors = []
    done = {}

    def proc(env):
        yield from server.pool.attach("conf/#")
        yield from client.setup()
        wf = Workflow(1, client)
        yield from wf.begin()
        for i in range(4):
            task = Task(i, wf)
            try:
                yield from task.begin([])
            except CaptureSenderError as exc:
                errors.append(exc)
            yield env.timeout(0.5)
        yield from client.drain()
        done["at"] = env.now

    env.process(proc(env))
    env.run(until=120)
    assert "at" in done
    assert len(errors) == 1
    # exactly one record lost to the injected bug, the rest delivered
    assert server.front.ingested.count == client.records_captured.count - 1


# -- blocking http: replay through the inline send ------------------------------

def http_world(journal_dir, collector_at, stop_after_ingests=None,
               durable=True, on_ingest=None):
    """Edge device + an ``http`` client; the collector (dedup state under
    ``journal_dir``) is deployed at ``collector_at`` (``None``: now).

    Returns ``(env, client, ingested, sinks, stop)``: ``ingested`` logs
    each record the collector ingests, and ``stop`` succeeds on the
    ``stop_after_ingests``-th, in the step that ingests it (before the
    POST's response is sent).  ``on_ingest(net, count)`` runs in that
    step too, after every ingest.
    """
    env = Environment()
    net = Network(env, seed=7)
    dev = Device(env, A8M3, name="edge-dev")
    net.add_host("edge", device=dev)
    cloud = net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    ingested = []
    sinks = []
    stop = env.event()

    def ingest(records):
        ingested.extend(records)
        if len(ingested) == stop_after_ingests:
            stop.succeed()
        if on_ingest is not None:
            on_ingest(net, len(ingested))

    def deploy():
        sink, _ = deploy_capture_sink(
            "http", cloud, ingest, http_port=5000,
            server=ServerConfig(dedup_state_path=f"{journal_dir}/dedup.jsonl"),
        )
        sinks.append(sink)

    if collector_at is None:
        deploy()
    else:
        env.call_later(collector_at, deploy)
    config = durable_config(journal_dir, transport="http", durable=durable)
    client = create_client(dev, ("cloud", 5000), "/provlight", config)
    return env, client, ingested, sinks, stop


def record_key(record):
    return (record["type"], record.get("task_id"), record.get("status"),
            record.get("event"))


def test_durable_http_replays_from_the_workflow_process_exactly_once(tmp_path):
    """The collector appears mid-run: the POSTs refused before it are
    parked and replayed by the reconnect machine through the inline
    send, in seq order.  The client then crashes with the POST of an
    ingested record unacknowledged; the next incarnation replays it to
    a restarted collector, whose dedup state (``dedup_state_path``)
    rejects it."""
    env, client, ingested, sinks, stop = http_world(
        str(tmp_path), collector_at=1.0, stop_after_ingests=10
    )
    states = []
    client.add_connection_listener(states.append)
    capture_tasks(env, None, client, n_tasks=5, drain=False)
    env.run(until=stop)  # crash: simply stop simulating; no close()
    assert client.records_captured.count == 12
    assert env.metrics.events("reconnect") and client.replayed.count >= 5
    assert STATE_RECONNECTING in states
    pending1 = client.journal.pending
    assert pending1 == 12 - client.messages_sent.count >= 1
    first = [record_key(r) for r in ingested]
    assert len(first) == 10
    sinks[0].close()

    env2, client2, ingested2, sinks2, _ = http_world(str(tmp_path),
                                                     collector_at=None)
    done = {}

    def proc(env):
        yield from client2.setup()  # recovers + replays the journal
        yield from client2.drain()
        done["at"] = env.now

    env2.process(proc(env2))
    env2.run(until=120)
    assert "at" in done
    assert client2.replayed.count == pending1
    # the ingested-but-unacked POST came back and was rejected, not doubled
    assert sinks2[0].requests.count == pending1 > len(ingested2)
    # every record once, in capture (seq) order across both incarnations
    captured = ([("dataflow", None, None, "begin")]
                + [("task", i, status, None)
                   for i in range(5) for status in ("RUNNING", "FINISHED")]
                + [("dataflow", None, None, "end")])
    assert first + [record_key(r) for r in ingested2] == captured
    assert client2.journal.pending == 0
    assert client2.connection_state == STATE_CONNECTED


#: the records ``capture_tasks(..., n_tasks=5)`` captures, in seq order
CAPTURED_5 = ([("dataflow", None, None, "begin")]
              + [("task", i, status, None)
                 for i in range(5) for status in ("RUNNING", "FINISHED")]
              + [("dataflow", None, None, "end")])


@pytest.mark.parametrize("durable", [False, True], ids=["besteffort", "durable"])
def test_a_response_lost_for_good_ends_the_request(tmp_path, durable):
    """The collector ingests the third POST, and in that step the uplink
    is cut for 500 s, so its response never gets out: the server's
    connection gives up at its retransmission limit and the client's has
    nothing unacknowledged.  The response watchdog ends the wait with
    ``HttpRequestError``: a best-effort client counts the record lost and
    goes on, a durable one replays it after the heal and the collector's
    dedup state drops the copy.  Either way the workflow finishes."""
    cut = {}

    def on_ingest(net, count):
        if count == 3 and not cut:
            cut["faults"] = faults = LinkFaultInjector(net, "edge", "cloud")
            faults.partition_now()
            net.env.call_later(500.0, faults.heal_now)
            cut["at"] = net.env.now

    env, client, ingested, _, _ = http_world(
        str(tmp_path), collector_at=None, durable=durable, on_ingest=on_ingest
    )
    done = capture_tasks(env, None, client, n_tasks=5, drain=durable)
    env.run(until=3000)
    assert "at" in done, "the workflow never finished"
    assert done["at"] > cut["at"] + client.transport.session.RESPONSE_TIMEOUT_S
    keys = [record_key(r) for r in ingested]
    assert len(set(keys)) == len(keys)  # nothing ingested twice
    if durable:
        assert keys == CAPTURED_5  # every record once, in seq order
        assert client.journal.pending == 0
    else:
        assert keys[:3] == CAPTURED_5[:3]
        # the third record was ingested, but its sender counts it lost,
        # and so are the records captured while the uplink is down
        assert client.transport.capture_errors.count >= 1
        assert len(keys) + client.transport.capture_errors.count - 1 == len(CAPTURED_5)


@pytest.mark.parametrize("durable", [False, True], ids=["besteffort", "durable"])
def test_a_bug_in_a_blocking_send_surfaces_from_capture(tmp_path, durable):
    """Only the transport's delivery error is capture loss.  Anything
    else raised inside a blocking send is a bug: it surfaces from
    ``capture()``, and the record it interrupted is not counted as
    delivered (nor acked in the journal)."""
    env, client, ingested, _, _ = http_world(str(tmp_path), collector_at=None,
                                             durable=durable)
    session = client.transport.session
    real_post = session.post
    blowups = {"left": 1}

    def buggy_post(*args, **kwargs):
        if blowups["left"]:
            blowups["left"] -= 1
            raise RuntimeError("injected transport bug")
        response = yield from real_post(*args, **kwargs)
        return response

    session.post = buggy_post
    errors = []
    done = {}

    def proc(env):
        yield from client.setup()
        wf = Workflow(1, client)
        try:
            yield from wf.begin()
        except RuntimeError as exc:
            errors.append(exc)
        yield from Task(0, wf).begin([])
        yield from client.drain()
        done["at"] = env.now

    env.process(proc(env))
    env.run(until=60)
    assert "at" in done
    assert [str(e) for e in errors] == ["injected transport bug"]
    assert client.records_captured.count == 2
    assert client.messages_sent.count == 1 == len(ingested)
    assert client.device.memory.used("capture-buffers") == 0
    if durable:
        assert client.journal.pending == 1  # the interrupted record
