"""Tests for AllOf / AnyOf conditions.

Conditions carry no value: a waiter reads results from the events it
combined, so these tests check when a condition fires (``env.now``) and
the state of its events.
"""

import pytest

from repro.simkernel import Environment


def test_all_of_waits_for_all():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(5, value="b")
        result = yield env.all_of([t1, t2])
        times.append(env.now)
        return result, t1.processed, t2.processed

    p = env.process(proc(env))
    env.run()
    assert times == [5.0]
    assert p.value == (None, True, True)


def test_any_of_returns_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(5, value="slow")
        result = yield env.any_of([t1, t2])
        return (env.now, result, t1.processed, t2.processed)

    p = env.process(proc(env))
    env.run()
    assert p.value == (1.0, None, True, False)


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_empty_any_of_triggers_immediately():
    env = Environment()

    def proc(env):
        yield env.any_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_nested_conditions_fire_when_the_inner_one_does():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        t3 = env.timeout(3)
        inner = env.any_of([t2, t3])
        yield env.all_of([t1, inner])
        return env.now, inner.processed, t3.processed

    p = env.process(proc(env))
    env.run()
    assert p.value == (2.0, True, False)


def test_condition_propagates_failure():
    env = Environment()

    def failing(env):
        yield env.timeout(1)
        raise ValueError("inner")

    def waiter(env):
        with pytest.raises(ValueError, match="inner"):
            yield env.all_of([env.process(failing(env)), env.timeout(10)])
        return env.now

    p = env.process(waiter(env))
    env.run()
    assert p.value == 1.0


def test_condition_rejects_foreign_events():
    env1 = Environment()
    env2 = Environment()
    with pytest.raises(ValueError):
        env1.all_of([env1.timeout(1), env2.timeout(1)])


def test_condition_with_already_processed_event():
    env = Environment()
    marker = []

    def first(env):
        yield env.timeout(1)

    def second(env, done):
        yield env.timeout(2)
        late = env.timeout(1, value="late")
        yield env.all_of([done, late])
        marker.append((env.now, done.processed, late.processed))

    done = env.process(first(env))
    env.process(second(env, done))
    env.run()
    assert marker == [(3.0, True, True)]
