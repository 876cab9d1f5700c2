"""Tests for Resource and Mailbox."""

import pytest

from repro.simkernel import Environment, Mailbox, Resource


# -- Resource ---------------------------------------------------------------


def test_resource_grants_within_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(env, res, label):
        with res.request() as req:
            yield req
            granted.append((label, env.now))
            yield env.timeout(5)

    env.process(user(env, res, "a"))
    env.process(user(env, res, "b"))
    env.run()
    assert granted == [("a", 0.0), ("b", 0.0)]


def test_resource_queues_beyond_capacity():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def user(env, res, label, hold):
        with res.request() as req:
            yield req
            granted.append((label, env.now))
            yield env.timeout(hold)

    env.process(user(env, res, "a", 3))
    env.process(user(env, res, "b", 1))
    env.run()
    assert granted == [("a", 0.0), ("b", 3.0)]


def test_resource_count_and_capacity():
    env = Environment()
    res = Resource(env, capacity=2)

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user(env, res))
    env.process(user(env, res))
    env.process(user(env, res))
    env.run(until=0.5)
    assert res.capacity == 2
    assert res.count == 2
    assert len(res.queue) == 1


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_explicit_release():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env, res):
        req = res.request()
        yield req
        order.append(("hold", env.now))
        yield env.timeout(2)
        req.cancel()

    def waiter(env, res):
        with res.request() as req:
            yield req
            order.append(("wait-granted", env.now))

    env.process(holder(env, res))
    env.process(waiter(env, res))
    env.run()
    assert order == [("hold", 0.0), ("wait-granted", 2.0)]


def test_cancel_queued_request_leaves_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env, res):
        req = res.request()
        # give up without ever acquiring
        yield env.timeout(1)
        req.cancel()

    env.process(holder(env, res))
    env.process(impatient(env, res))
    env.run(until=2)
    assert len(res.queue) == 0


# -- Mailbox ---------------------------------------------------------------


def test_store_fifo_order():
    env = Environment()
    box = Mailbox(env)
    got = []

    def producer(env):
        for item in ["x", "y", "z"]:
            box.put_nowait(item)
            yield env.timeout(0)

    def consume(item):
        got.append(item)
        box.on_item(consume)

    env.process(producer(env))
    box.on_item(consume)
    env.run()
    assert got == ["x", "y", "z"]


def test_store_drain_pending_batches_without_blocking():
    env = Environment()
    box = Mailbox(env)
    for item in ["a", "b", "c", "d"]:
        box.put_nowait(item)
    assert box.pending == 4
    assert box.drain(2) == ["a", "b"]
    assert box.drain() == ["c", "d"]
    assert box.drain() == []  # empty: returns, never blocks
    assert box.pending == 0


def test_on_item_waits_until_put():
    env = Environment()
    box = Mailbox(env)
    got = []

    def producer(env):
        yield env.timeout(4)
        box.put_nowait("late")

    box.on_item(lambda item: got.append((item, env.now)))
    env.process(producer(env))
    env.run()
    assert got == [("late", 4.0)]


def test_mailbox_refuses_a_second_waiter():
    env = Environment()
    box = Mailbox(env)
    got = []
    box.on_item(got.append)
    with pytest.raises(RuntimeError, match="already has a waiter"):
        box.on_item(lambda item: None)
    box.put_nowait("x")  # the first waiter still takes the next item
    assert box.pending == 0
    env.run()
    assert got == ["x"]


def test_mailbox_callback_runs_in_place_only_in_tail_position():
    env = Environment()
    box = Mailbox(env)
    got = []
    box.on_item(got.append)
    box.put_nowait("in place", tail=True)  # nothing due now: runs at once
    assert got == ["in place"] and env._queue == []
    box.on_item(got.append)
    box.put_nowait("deferred")  # not in tail position: a zero-delay timer
    assert got == ["in place"] and len(env._queue) == 1
    env.run()
    assert got == ["in place", "deferred"]
    box.on_item(got.append)
    env.call_later(0.0, got.append, "due now")
    box.put_nowait("behind", tail=True)  # an entry is due now: defers
    env.run()
    assert got == ["in place", "deferred", "due now", "behind"]

