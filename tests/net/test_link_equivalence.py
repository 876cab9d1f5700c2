"""The timer-driven :class:`~repro.net.Link` against a process-based oracle.

``ProcessLink`` is the link as it was modelled before timer callbacks: a
``Store`` (:mod:`tests.net.store_oracle`) feeding one pump process that holds the
transmitter for each packet's serialization time, then samples the loss
model and spawns one ``link-propagate`` process per surviving packet.
Both models run the same random schedule of sends, mid-queue
``configure(...)`` calls, partitions, heals and Gilbert-Elliott burst
settings over several links that share one RNG; every delivery (packet
and time), every counter and the final RNG state must agree.

A packet reaching an idle transmitter serializes at the bandwidth in
force at its ``send`` call, even if a ``configure(bandwidth_bps=...)``
follows in the same instant; a queued packet serializes at the bandwidth
in force when it reaches the head of the queue.  The oracle's pump only
resumes with a handed-over packet one kernel event after the send, so
``ProcessLink.send`` stamps the current bandwidth on a packet that finds
the pump idle.

Schedule instants sit on a millisecond grid while link timings come from
off-grid bandwidths and latencies, so no action lands on the very
instant a serialization ends (the one place where the two models may
order same-instant events differently).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Link, Packet
from repro.simkernel import Environment

from .store_oracle import Store

#: (bandwidth_bps, latency_s, jitter_s) per link
LINKS = [
    (8_117.0, 0.0131, 0.0),
    (97_331.0, 0.0047, 0.0011),
    (1_237_001.0, 0.0213, 0.0),
]
BANDWIDTHS = [7_919.0, 52_183.0, 2_503_013.0]
LATENCIES = [0.00173, 0.0389]
GRID_S = 1e-3


class ProcessLink(Link):
    """Oracle: the Store + pump-process + propagate-process link model."""

    def __init__(self, env, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        self._inbox = Store(env)
        #: True while the pump waits on an empty inbox
        self._idle = True
        env.process(self._pump(), name=f"link-{self.src}->{self.dst}")

    def send(self, packet, deliver):
        # a packet reaching an idle transmitter keeps the send-time rate
        rate = self.bandwidth_bps if self._idle else None
        self._idle = False
        self._inbox.put_nowait((packet, deliver, rate))

    def _pump(self):
        env = self.env
        while True:
            if not self._inbox.items:
                self._idle = True
            packet, deliver, rate = yield self._inbox.get()
            yield env.timeout(packet.size * 8.0 / (rate or self.bandwidth_bps))
            self.tx_bytes.record(packet.size)
            if not self.up or self._drop(packet):
                self.dropped.record(packet.size)
                continue
            delay = self.latency_s
            if self.jitter_s > 0.0:
                delay = max(0.0, delay + float(self.rng.normal(0.0, self.jitter_s)))
            env.process(self._propagate(delay, packet, deliver), name="link-propagate")

    def _propagate(self, delay, packet, deliver):
        yield self.env.timeout(delay)
        deliver(packet)


link_index = st.integers(0, len(LINKS) - 1)
send = st.tuples(st.just("send"), link_index, st.integers(0, 1400))
configure = st.tuples(
    st.just("configure"),
    link_index,
    st.fixed_dictionaries(
        {},
        optional={
            "bandwidth_bps": st.sampled_from(BANDWIDTHS),
            "latency_s": st.sampled_from(LATENCIES),
            "jitter_s": st.sampled_from([0.0, 0.0007]),
            "loss": st.sampled_from([0.0, 0.13, 0.41]),
        },
    ),
)
burst = st.tuples(
    st.just("configure"),
    link_index,
    st.fixed_dictionaries(
        {
            "burst_loss": st.sampled_from([0.0, 0.7, 1.0]),
            "p_enter_burst": st.sampled_from([0.0, 0.2, 0.6]),
            "p_exit_burst": st.sampled_from([0.3, 1.0]),
        }
    ),
)
flap = st.tuples(st.sampled_from(["partition", "heal"]), link_index)
schedule = st.lists(
    st.tuples(st.integers(0, 400), st.one_of(send, send, configure, burst, flap)),
    max_size=60,
)


def simulate(link_class, actions, seed):
    env = Environment()
    rng = np.random.default_rng(seed)
    links = [
        link_class(env, "a", f"b{i}", bw, lat, jitter_s=jitter, rng=rng)
        for i, (bw, lat, jitter) in enumerate(LINKS)
    ]
    deliveries = []

    def driver():
        for seq, (slot, action) in enumerate(sorted(actions, key=lambda a: a[0])):
            at = slot * GRID_S
            if at > env.now:
                yield env.timeout(at - env.now)
            kind, index = action[0], action[1]
            link = links[index]
            if kind == "send":
                packet = Packet(
                    src=("a", 1), dst=(link.dst, 2), protocol="udp",
                    payload=b"x" * action[2], meta={"seq": seq},
                )
                link.send(
                    packet,
                    lambda p, i=index: deliveries.append((i, p.meta["seq"], env.now)),
                )
            elif kind == "configure":
                link.configure(**action[2])
            else:
                getattr(link, kind)()

    env.process(driver())
    env.run()
    counters = [
        (l.tx_bytes.count, l.tx_bytes.total, l.dropped.count, l.dropped.total)
        for l in links
    ]
    return deliveries, counters, rng.bit_generator.state


@given(actions=schedule, seed=st.integers(0, 2**16))
@example(
    actions=[(0, ("send", 0, 0)), (0, ("configure", 0, {"bandwidth_bps": 7919.0}))],
    seed=0,
)
@settings(max_examples=150, deadline=None)
def test_timer_link_matches_process_oracle(actions, seed):
    expected = simulate(ProcessLink, actions, seed)
    assert simulate(Link, actions, seed) == expected


def test_oracle_exercises_loss_queueing_and_partition():
    """Guard against a vacuous oracle: one fixed schedule drives queueing,
    burst loss and a partition, and both models still agree."""
    actions = [(0, ("send", 0, 1000))] * 4 + [
        (1, ("configure", 0, {"burst_loss": 1.0, "p_enter_burst": 0.6, "p_exit_burst": 0.3})),
        (2, ("send", 1, 200)),
        (2, ("partition", 1)),
        (3, ("send", 1, 200)),
        (900, ("heal", 1)),
        (901, ("send", 1, 200)),
    ]
    deliveries, counters, _ = simulate(Link, actions, seed=5)
    assert simulate(ProcessLink, actions, seed=5)[:2] == (deliveries, counters)
    assert counters[0][0] == 4  # all four queued packets serialized
    assert counters[1][2] >= 1  # the partition dropped traffic
    assert any(i == 1 for i, _, _ in deliveries)  # and the heal restored it
