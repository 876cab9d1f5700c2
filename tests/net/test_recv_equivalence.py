"""Socket-callback receivers against the receive loops they replaced.

The oracle is the receive side as it was modelled before socket
callbacks: a ``Store`` inbox (:mod:`tests.net.store_oracle`) and a
generator process blocked on ``Store.get()``, in two forms.
:func:`oracle_consumer` handles one datagram per wakeup, like the
MQTT-SN client's loop; :func:`oracle_batch_server` takes the first
datagram plus up to ``max_batch - 1`` buffered ones, holds them for a
batched service time and then handles them, like the broker's loop.

The callback path is the production code: an :class:`MqttSnClient` on
a :class:`~repro.net.UdpSocket`, and an :class:`MqttSnBroker` on a
``UdpSocket`` or on a dispatcher's :class:`~repro.net.VirtualSocket`,
with ``_dispatch`` replaced by a logger.  A ``UdpSocket`` receives
from timers whose last action is the delivery, as ``Host.deliver`` runs
at the end of a link or loopback timer; a ``VirtualSocket`` receives
whole bundles in one step, with more work after each delivery, as the
dispatcher forwards them.

Hypothesis draws schedules of deliveries, unrelated timers and broker
crashes on a binary time grid, with several actions in one instant;
the handler also schedules events at ``now``.  Both models must log
the same ``(env.now, what)`` trace in the same order.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mqttsn import MqttSnBroker, MqttSnClient
from repro.mqttsn import packets as pkt
from repro.net import Network, Packet, VirtualSocket
from repro.simkernel import Environment

from .store_oracle import Store

#: schedule slots are multiples of this many seconds (exact in binary)
GRID_S = 1 / 8
SOURCE = ("dev", 7)


class StoreSocket:
    """Oracle receive side: a ``Store`` inbox that a process yields on."""

    def __init__(self, env):
        self.inbox = Store(env)
        self.closed = False

    def _deliver(self, payload, source):
        if not self.closed:
            self.inbox.put_nowait((payload, source))


def oracle_consumer(sock, handle):
    while True:
        payload, source = yield sock.inbox.get()
        handle(payload, source)


def oracle_batch_server(env, sock, max_batch, fixed_s, per_s, handle):
    while True:
        batch = [(yield sock.inbox.get())]
        if max_batch > 1:
            batch.extend(sock.inbox.drain_pending(max_batch - 1))
        service = fixed_s + per_s * len(batch)
        if service > 0:
            yield env.timeout(service)
        for payload, source in batch:
            handle(payload, source)


class LoggingClient(MqttSnClient):
    def _dispatch(self, message):
        self.handle(message)


class LoggingBroker(MqttSnBroker):
    def _dispatch(self, message, source):
        self.handle(message)


def datagram(seq):
    return pkt.Publish(topic_id=1, msg_id=seq, payload=b"x", qos=1).encode()


def simulate(model, form, actions, max_batch, fixed_s, per_s):
    """Run ``actions`` against one receiver; returns its trace."""
    env = Environment()
    trace = []

    def log(what):
        trace.append((env.now, what))

    def handle_id(msg_id):
        log(("rx", msg_id))
        # consumer work that schedules events in the same instant
        if msg_id % 3 == 0:
            env.call_later(0.0, log, ("echo", msg_id))
        if msg_id % 4 == 1:
            env.timeout(0.0).callbacks.append(lambda _e: log(("tick", msg_id)))

    if model == "oracle":
        sock = StoreSocket(env)

        def handle(payload, _source):
            handle_id(pkt.decode(payload).msg_id)

        if form == "client":
            proc = env.process(oracle_consumer(sock, handle))
        else:
            proc = env.process(
                oracle_batch_server(env, sock, max_batch, fixed_s, per_s, handle)
            )

        def crash():
            sock.closed = True
            if proc.is_alive:
                proc.defused = True
                proc.interrupt("crash")

        deliver = sock._deliver
    else:
        host = Network(env).add_host("srv")
        if form == "client":
            receiver = LoggingClient(host, "c", ("broker", 1))
        else:
            sock = None
            if form == "virtual":
                sock = VirtualSocket(SimpleNamespace(env=env), 0)
            receiver = LoggingBroker(
                host, service_time_s=per_s, batch_fixed_s=fixed_s,
                max_batch=max_batch, sock=sock,
            )
        receiver.handle = lambda message: handle_id(message.msg_id)
        crash = getattr(receiver, "crash", None)
        sock = receiver.sock

        if form == "virtual":
            def deliver(payload, source):
                sock.put_nowait((payload, source))
        else:
            def deliver(payload, source):
                sock._deliver(
                    Packet(src=source, dst=("srv", sock.port), protocol="udp",
                           payload=payload)
                )

    seq = 0
    for index, (slot, kind, count) in enumerate(sorted(actions, key=lambda a: a[0])):
        at = slot * GRID_S
        if kind == "datagram":
            if form == "virtual":
                # one dispatcher bundle: several deliveries in one step,
                # with more work after each of them
                def bundle(first, count, index):
                    for msg_id in range(first, first + count):
                        deliver(datagram(msg_id), SOURCE)
                        log(("forwarded", msg_id))
                    log(("bundle", index))

                env.call_later(at, bundle, seq + 1, count, index)
                seq += count
            else:
                for _ in range(count):
                    seq += 1
                    env.call_later(at, deliver, datagram(seq), SOURCE)
        elif kind == "unrelated":
            env.call_later(at, log, ("unrelated", index))
        elif form != "client":  # a crash; the client has none
            env.call_later(at, crash)
    env.run()
    return trace


action = st.tuples(
    st.integers(0, 24),
    st.sampled_from(["datagram", "datagram", "datagram", "unrelated", "crash"]),
    st.integers(1, 3),
)
schedule = st.lists(action, max_size=25)
service = st.sampled_from([(0.0, 0.0), (0.0, 0.25), (0.125, 0.25), (0.5, 0.0)])


def assert_same_trace(form, actions, max_batch, service_times):
    fixed_s, per_s = service_times
    expected = simulate("oracle", form, actions, max_batch, fixed_s, per_s)
    assert simulate("callback", form, actions, max_batch, fixed_s, per_s) == expected


@given(actions=schedule)
@example(actions=[(1, "datagram", 1), (1, "datagram", 1)])
@example(actions=[(1, "datagram", 1), (1, "unrelated", 1)])
@example(actions=[(0, "datagram", 3), (1, "datagram", 1), (1, "unrelated", 1)])
@settings(max_examples=150, deadline=None)
def test_client_callback_matches_receive_loop(actions):
    assert_same_trace("client", actions, 1, (0.0, 0.0))


@given(
    actions=schedule,
    form=st.sampled_from(["udp", "virtual"]),
    max_batch=st.sampled_from([1, 2, 64]),
    service_times=service,
)
@example(actions=[(1, "datagram", 1), (1, "datagram", 1)],
         form="udp", max_batch=64, service_times=(0.0, 0.0))
@example(actions=[(1, "datagram", 1), (1, "unrelated", 1)],
         form="udp", max_batch=64, service_times=(0.0, 0.0))
@example(actions=[(8, "datagram", 1), (9, "datagram", 2), (10, "datagram", 1)],
         form="udp", max_batch=2, service_times=(0.125, 0.25))
@example(actions=[(8, "datagram", 1), (9, "datagram", 1), (9, "crash", 1)],
         form="udp", max_batch=64, service_times=(0.125, 0.25))
@settings(max_examples=200, deadline=None)
def test_broker_callback_matches_batch_server(actions, form, max_batch, service_times):
    assert_same_trace(form, actions, max_batch, service_times)


def test_oracle_exercises_in_place_deferred_and_batched_wakes():
    """Guard against a vacuous oracle: one schedule drives an in-place
    wake, a deferred wake, a batch and a crash mid-service, and the
    traces still agree."""
    actions = [
        (0, "datagram", 1),    # alone in its instant: runs in place
        (4, "datagram", 2),    # an unrelated timer is due too: defers,
        (4, "unrelated", 1),   # and the second datagram joins the batch
        (6, "datagram", 1),    # arrives mid-service, served next
        (11, "crash", 1),      # while that batch is in service
        (12, "datagram", 1),   # after the crash: dropped
    ]
    trace = simulate("callback", "udp", actions, 64, 0.125, 0.25)
    assert trace == simulate("oracle", "udp", actions, 64, 0.125, 0.25)
    received = [what[1] for _, what in trace if what[0] == "rx"]
    assert received == [1, 2, 3]  # the batch in service at the crash is lost
    assert [t for t, what in trace if what[0] == "rx"] == [0.375, 1.125, 1.125]
    assert any(what[0] == "echo" for _, what in trace)
    assert any(what[0] == "unrelated" for _, what in trace)
