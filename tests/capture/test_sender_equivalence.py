"""The callback capture sender against the supervised process it
replaced (``sender_oracle.py``).

A scripted transport answers each send after a drawn delay with a
delivery, a spent delivery contract or a synchronous transport error,
and each reconnect probe with success or failure.  Drawn schedules of
captures, of those outcomes (which pause the sender behind the
reconnect machine) and of ``close()``, on best-effort and durable
clients, must give the same ``(env.now, what)`` trace: every send and
its outcome, every state change and reconnect, every error a capture
raised, and at the end the counters, the buffers still held and the
journal's unacked entries.
"""

import tempfile
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture import CaptureConfig, CaptureTransport
from repro.capture.client import CaptureClient
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment

from .sender_oracle import ProcessSenderClient

TIMES = st.sampled_from([0.0, 0.0, 0.001, 0.01, 0.05, 0.3])
SEND = st.tuples(TIMES, st.sampled_from(["ok", "ok", "ok", "fail", "raise"]))
PROBE = st.tuples(TIMES, st.booleans())


class Undelivered(Exception):
    pass


class ScriptedTransport(CaptureTransport):
    """Answers the n-th send and probe as the drawn script says (a
    delivery after 0.01 s, and a successful probe, once it runs out)."""

    name = "scripted"
    delivery_error = Undelivered

    def __init__(self, env, trace, sends, probes):
        self.env = env
        self.trace = trace
        self.sends = list(sends)
        self.probes = list(probes)

    def connect(self):
        return None
        yield  # pragma: no cover - generator shape

    def register(self, topic):
        return topic
        yield  # pragma: no cover - generator shape

    def reconnect(self, topic):
        delay, ok = self.probes.pop(0) if self.probes else (0.0, True)
        self.trace.append((self.env.now, "probe", ok))
        yield self.env.timeout(delay)
        if not ok:
            raise Undelivered("probe")
        return topic

    def send(self, payload, on_done=None):
        delay, result = self.sends.pop(0) if self.sends else (0.01, "ok")
        self.trace.append((self.env.now, "send", zlib.crc32(payload), result))
        if result == "raise":
            raise Undelivered("send")
        if on_done is None:  # the process model's completion event
            event = self.env.event()
            self.env.call_later(delay, self._settle_event, event, result)
            return event
        self.env.call_later(delay, self._settle, on_done, result)
        return None

    def _settle_event(self, event, result):
        if result == "ok":
            event.succeed()
        else:
            event.fail(Undelivered("spent"))

    def _settle(self, on_done, result):
        exc = None if result == "ok" else Undelivered("spent")
        if self.env.zero_delay_is_next():
            on_done(exc)
        else:
            self.env.call_later(0.0, on_done, exc)

    def disconnect(self):
        self.trace.append((self.env.now, "disconnect"))


def record(i):
    return {"kind": "task_begin", "workflow_id": 1, "task_id": i,
            "transformation_id": 0, "dependencies": [], "time": float(i),
            "data": []}


def run(client_cls, captures, sends, probes, close_at, durable):
    trace = []
    env = Environment()
    net = Network(env, seed=1)
    device = Device(env, A8M3, name="edge")
    net.add_host("edge", device=device)
    with tempfile.TemporaryDirectory() as journal_dir:
        config = CaptureConfig(durable=durable, journal_dir=journal_dir,
                               client_id="dev", reconnect_base_s=0.05)
        client = client_cls(device, ("cloud", 1883), "provlight/dev/data", config)
        client.transport = ScriptedTransport(env, trace, sends, probes)
        client.add_connection_listener(lambda state: trace.append((env.now, state)))

        def workflow():
            yield from client.setup()
            for i, gap in enumerate(captures):
                yield env.timeout(gap)
                try:
                    yield from client.capture(record(i))
                except Exception as exc:  # CaptureSenderError, CaptureClosedError
                    trace.append((env.now, "capture-raised", type(exc).__name__))

        env.process(workflow(), name="workflow")
        if close_at is not None:
            env.call_later(close_at, client.close)
        env.run(until=60.0)
        trace.extend((e["t"], e["kind"]) for e in env.metrics.events())
        unacked = None  # a closed client's journal is closed too
        if durable and not client.closed:
            unacked = [seq for seq, _ in client.journal.unacked()]
        trace.append((env.now, "end", client.messages_sent.count,
                      client.replayed.count, client._outstanding,
                      device.memory.used("capture-buffers"),
                      round(device.cpu.busy_time("capture"), 12),
                      client.connection_state, unacked))
        client.close()
    return trace


@settings(max_examples=150, deadline=None)
@given(
    captures=st.lists(TIMES, min_size=1, max_size=10),
    sends=st.lists(SEND, max_size=12),
    probes=st.lists(PROBE, max_size=4),
    close_at=st.one_of(st.none(), st.sampled_from([0.0, 0.002, 0.02, 0.2, 1.0])),
    durable=st.booleans(),
)
def test_callback_sender_matches_process_model(captures, sends, probes, close_at,
                                                durable):
    args = (captures, sends, probes, close_at, durable)
    assert run(CaptureClient, *args) == run(ProcessSenderClient, *args)


def test_a_failed_send_parks_the_sender_behind_the_replay():
    """A directed case: a durable client's failed delivery starts the
    reconnect machine, the next capture waits behind the replay, and
    both records are delivered once, in seq order."""
    args = ([0.0, 0.001], [(0.01, "fail")], [(0.0, True)], None, True)
    new = run(CaptureClient, *args)
    assert new == run(ProcessSenderClient, *args)
    states = [what[1] for what in new if what[1] in ("reconnecting", "connected")]
    assert states == ["connected", "reconnecting", "connected"]
    end = next(what for what in new if what[1] == "end")
    assert end[1:6] == ("end", 2, 1, 0, 0)
