"""Fire-and-forget primitives: ``Environment.call_later`` timers and
``Store.put_nowait`` puts that schedule no event of their own."""

import pytest

from repro.simkernel import (
    Environment,
    FilterStore,
    PriorityItem,
    PriorityStore,
    Process,
    Store,
)


def _drain(env):
    """Run ``env`` to idle one step at a time; returns the step count."""
    steps = 0
    while env.peek() != float("inf"):
        env.step()
        steps += 1
    return steps


# -- call_later ---------------------------------------------------------------


def test_call_later_fires_at_now_plus_delay_with_args():
    env = Environment(initial_time=2.0)
    calls = []
    env.call_later(1.5, lambda *args: calls.append((env.now, args)), "a", 7)
    env.call_later(0.0, lambda: calls.append((env.now, ())))
    env.run()
    assert calls == [(2.0, ()), (3.5, ("a", 7))]


def test_call_later_is_one_event_and_no_process(monkeypatch):
    spawned = []
    real_init = Process.__init__

    def spy(self, *args, **kwargs):
        spawned.append(kwargs.get("name"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", spy)
    env = Environment()
    env.call_later(1.0, lambda: None)
    assert len(env._queue) == 1
    assert _drain(env) == 1
    assert spawned == []


def test_call_later_keeps_same_instant_insertion_order():
    env = Environment()
    order = []
    env.call_later(1.0, order.append, "first")
    env.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout"))
    env.call_later(1.0, order.append, "last")
    env.run()
    assert order == ["first", "timeout", "last"]


def test_call_later_rearm_chain():
    env = Environment()
    fired = []

    def tick(n):
        fired.append(env.now)
        if n > 1:
            env.call_later(0.5, tick, n - 1)

    env.call_later(0.5, tick, 3)
    env.run()
    assert fired == [0.5, 1.0, 1.5]


def test_call_later_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.call_later(-1.0, lambda: None)


def test_call_later_exception_propagates_from_run():
    env = Environment()

    def boom():
        raise KeyError("boom")

    env.call_later(1.0, boom)
    with pytest.raises(KeyError):
        env.run()


# -- put_nowait ---------------------------------------------------------------


def _getter_wakeups(put_method):
    """(name, time, item) wakeups of two getters fed by ``put_method``."""
    env = Environment()
    store = Store(env)
    woke = []

    def getter(name):
        item = yield store.get()
        woke.append((name, env.now, item))

    def producer():
        yield env.timeout(1.0)
        getattr(store, put_method)("x")
        getattr(store, put_method)("y")
        getattr(store, put_method)("z")

    env.process(getter("g1"))
    env.process(getter("g2"))
    env.process(producer())
    env.run()
    return woke, store.items


def test_put_nowait_wakes_getters_like_put():
    assert _getter_wakeups("put_nowait") == _getter_wakeups("put")
    woke, left = _getter_wakeups("put_nowait")
    assert woke == [("g1", 1.0, "x"), ("g2", 1.0, "y")]
    assert left == ["z"]


def test_put_nowait_without_waiter_schedules_nothing():
    env = Environment()
    store = Store(env)
    store.put_nowait("a")
    store.put_nowait("b")
    assert env._queue == []
    assert store.items == ["a", "b"]
    # the put event path schedules one no-op event per put
    store.put("c")
    assert len(env._queue) == 1


def test_put_nowait_on_full_bounded_store_raises():
    env = Environment()
    store = Store(env, capacity=2)
    store.put_nowait(1)
    store.put_nowait(2)
    with pytest.raises(RuntimeError, match="full"):
        store.put_nowait(3)
    assert store.items == [1, 2]


def test_put_nowait_priority_store_orders_and_wakes_waiter():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def getter():
        for _ in range(3):
            item = yield store.get()
            got.append(item.item)

    env.process(getter())
    env.run()
    store.put_nowait(PriorityItem(2, "low"))
    store.put_nowait(PriorityItem(0, "high"))
    store.put_nowait(PriorityItem(1, "mid"))
    env.run()
    # the waiting getter took the first put; the rest come out by priority
    assert got == ["low", "high", "mid"]


def test_put_nowait_honours_filter_store_waiters():
    env = Environment()
    store = FilterStore(env)
    got = []

    def getter(name, want):
        item = yield store.get(lambda it: it == want)
        got.append((name, env.now, item))

    env.process(getter("odd", 1))
    env.process(getter("even", 2))
    env.run()
    store.put_nowait(2)
    store.put_nowait(3)
    store.put_nowait(1)
    env.run()
    assert got == [("even", 0.0, 2), ("odd", 0.0, 1)]
    assert store.items == [3]
