"""Tests for the DES environment and event loop."""

import pytest

from repro.simkernel import EmptySchedule, Environment, Event, Interrupt


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)

    env.process(proc(env))
    env.run()
    assert env.now == 3.0


def test_timeout_value_is_returned():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.timeout(1.0, value="hello")
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)  # lint: disable=dropped-event(the call must raise before any event exists)


def test_run_until_time_stops_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_time_in_past_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env, ev):
        yield env.timeout(2.0)
        ev.succeed("payload")

    ev = env.event()
    env.process(proc(env, ev))
    assert env.run(until=ev) == "payload"
    assert env.now == 2.0


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        env.run(until=ev)


def test_run_with_no_events_returns_immediately():
    env = Environment()
    env.run()
    assert env.now == 0.0


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    timer = env.timeout(7.0)
    assert env.peek() == timer.delay == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_events_at_same_time_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abc":
        env.process(proc(env, label))
    env.run()
    assert order == ["a", "b", "c"]


def test_nested_process_waiting():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return "child-done"

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    env.run()
    assert p.value == "child-done"
    assert env.now == 2.0


def test_process_crash_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_waiting_process_handles_child_failure():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["boom"]


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_event_succeed_twice_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_interrupt_raises_inside_process():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(10)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, env.now))

    def attacker(env, proc):
        yield env.timeout(3)
        proc.interrupt("stop now")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert log == [("interrupted", "stop now", 3.0)]


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()
    errors = []

    def selfish(env):
        try:
            # active process is this one; interrupting self is an error
            env.active_process.interrupt()
        except RuntimeError as exc:
            errors.append(str(exc))
        yield env.timeout(0)

    env.process(selfish(env))
    env.run()
    assert len(errors) == 1


def test_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_unhandled_failed_event_crashes_simulation():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_defused_failed_event_does_not_crash():
    env = Environment()
    ev = env.event()
    ev.defused = True
    ev.fail(RuntimeError("silent"))
    env.run()  # should not raise


def test_timeout_fast_path_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-0.1)  # lint: disable=dropped-event(the call must raise before any event exists)
    assert len(env._queue) == 0
