"""Burst loss (Gilbert-Elliott) and partition/flap fault injection."""

import pytest

from repro.net import LinkFaultInjector, Network
from repro.simkernel import Environment
from ..waiting import next_item


def make_net(seed=0):
    env = Environment()
    net = Network(env, seed=seed)
    net.add_host("a")
    net.add_host("b")
    net.connect("a", "b", bandwidth_bps=1e6, latency_s=0.001)
    return env, net


def blast(env, net, n=400, size=100, spacing_s=0.01, port=9):
    """Send ``n`` UDP datagrams a->b; returns the list of arrivals."""
    sock_b = net.hosts["b"].udp_socket(port=port)
    got = []

    def rx(env):
        while True:
            data, src = yield next_item(sock_b)
            got.append(data)

    def tx(env):
        sock_a = net.hosts["a"].udp_socket()
        for i in range(n):
            sock_a.sendto(b"x" * size, ("b", port))
            yield env.timeout(spacing_s)

    env.process(rx(env))
    env.process(tx(env))
    return got


# -- burst loss ---------------------------------------------------------------

def test_burst_loss_disabled_by_default():
    env, net = make_net()
    got = blast(env, net, n=200)
    env.run(until=60)
    assert len(got) == 200


def test_burst_loss_drops_in_bursts():
    env, net = make_net(seed=3)
    net.configure_link("a", "b", burst_loss=1.0, p_enter_burst=0.05,
                       p_exit_burst=0.25)
    got = blast(env, net, n=400)
    env.run(until=60)
    # bursts bite: substantial loss, but the good state still delivers
    assert 0 < len(got) < 400
    link = net.link("a", "b")
    assert link.dropped.count > 0
    # mean burst length 1/p_exit = 4 packets: drops must cluster, so the
    # drop count is well above what uniform loss=0 would produce and the
    # deliveries come in runs rather than alternating singles
    assert link.dropped.count >= 20


def test_burst_loss_is_deterministic_per_seed():
    def run(seed):
        env, net = make_net(seed=seed)
        net.configure_link("a", "b", burst_loss=0.9, p_enter_burst=0.1,
                           p_exit_burst=0.3)
        got = blast(env, net, n=300)
        env.run(until=60)
        return len(got)

    assert run(11) == run(11)
    assert run(11) != run(12) or run(11) != run(13)  # seeds matter


def test_burst_loss_validation():
    env, net = make_net()
    link = net.link("a", "b")
    with pytest.raises(ValueError):
        link.configure(burst_loss=1.5)
    with pytest.raises(ValueError):
        link.configure(p_enter_burst=-0.1)
    with pytest.raises(ValueError):
        link.configure(p_exit_burst=0.0)  # would trap the chain in bursts


# -- partition / heal ---------------------------------------------------------

def test_partition_drops_everything_until_heal():
    env, net = make_net()
    faults = LinkFaultInjector(net, "a", "b")
    got = blast(env, net, n=300, spacing_s=0.01)
    faults.partition_at(0.5, 1.0)
    env.run(until=60)
    # 3s of traffic, 1s outage: roughly a third of the stream is gone
    assert 150 < len(got) < 250
    assert net.link("a", "b").dropped.count > 50
    assert env.metrics.events() == [
        {"t": 0.5, "kind": "partition-link", "a": "a", "b": "b"},
        {"t": 1.5, "kind": "heal-link", "a": "a", "b": "b"},
    ]
    assert not faults.partitioned


def test_partition_now_and_heal_now():
    env, net = make_net()
    faults = LinkFaultInjector(net, "a", "b")
    assert not faults.partitioned
    faults.partition_now()
    assert faults.partitioned
    assert not net.link("a", "b").up
    assert not net.link("b", "a").up
    faults.partition_now()  # idempotent
    faults.heal_now()
    assert not faults.partitioned
    assert net.link("a", "b").up
    assert [e["kind"] for e in env.metrics.events()] == ["partition-link", "heal-link"]


def test_flap_schedules_repeated_outages():
    env, net = make_net()
    faults = LinkFaultInjector(net, "a", "b")
    faults.flap(period_s=1.0, down_s=0.25, cycles=4)
    env.run(until=10)
    downs = env.metrics.events("partition-link")
    ups = env.metrics.events("heal-link")
    assert len(downs) == len(ups) == 4
    for down, up in zip(downs, ups):
        assert up["t"] - down["t"] == pytest.approx(0.25)
    assert not faults.partitioned


def test_fault_injector_validation():
    env, net = make_net()
    faults = LinkFaultInjector(net, "a", "b")
    with pytest.raises(ValueError):
        faults.partition_at(-1.0, 1.0)
    with pytest.raises(ValueError):
        faults.partition_at(0.0, 0.0)
    with pytest.raises(ValueError):
        faults.flap(period_s=1.0, down_s=1.0, cycles=2)
    with pytest.raises(ValueError):
        faults.flap(period_s=1.0, down_s=0.5, cycles=0)
    with pytest.raises(KeyError):
        LinkFaultInjector(net, "a", "nope")


def test_set_and_clear_burst_loss_via_injector():
    env, net = make_net(seed=5)
    faults = LinkFaultInjector(net, "a", "b")
    faults.set_burst_loss(1.0, p_enter_burst=0.2, p_exit_burst=0.2)
    got = blast(env, net, n=200)
    env.run(until=30)
    lossy = len(got)
    assert lossy < 200
    faults.clear_burst_loss()
    got2 = blast(env, net, n=200, port=10)
    env.run(until=60)
    assert len(got2) == 200  # back to a clean link
