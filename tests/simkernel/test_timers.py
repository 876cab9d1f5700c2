"""Event-free kernel primitives: ``Environment.call_later`` timers,
``Environment.zero_delay_is_next``, free-slot ``Resource.request`` grants, and ``Mailbox`` hand-offs that
schedule nothing beyond the waiter's own wake.

The order oracle at the end runs random programs against a reference
kernel whose timers are :class:`~repro.simkernel.Timeout` events."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simkernel import (
    DebugEnvironment,
    Environment,
    Process,
    Mailbox,
    Resource,
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


@pytest.mark.parametrize("kernel", [Environment, DebugEnvironment])
def test_nan_delay_is_rejected_and_the_clock_stays_monotonic(kernel):
    env = kernel()
    fired, rejected = [], []
    for delay in (5.0, 3.0, float("nan"), 1.0, 4.0, 2.0):
        try:
            env.call_later(delay, lambda: fired.append(env.now))
        except ValueError:
            rejected.append(delay)
    with pytest.raises(ValueError):
        env.timeout(float("nan"))  # lint: disable=dropped-event(the call must raise before any event exists)
    env.run()
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert len(rejected) == 1 and math.isnan(rejected[0])
    assert getattr(env, "hazards", []) == []


def test_call_later_exception_propagates_from_run():
    env = Environment()

    def boom():
        raise KeyError("boom")

    env.call_later(1.0, boom)
    with pytest.raises(KeyError):
        env.run()


def test_zero_delay_is_next_only_when_nothing_else_is_due_now():
    env = Environment()
    seen = []

    def check(tag):
        seen.append((tag, env.zero_delay_is_next()))

    assert env.zero_delay_is_next()  # empty heap
    env.call_later(1.0, check, "alone")
    env.call_later(2.0, check, "crowded")
    env.call_later(2.0, check, "last-in-its-instant")
    env.call_later(3.0, env.timeout, 0.0)  # leaves a zero-delay event due
    env.call_later(3.0, check, "behind-a-zero-delay-event")
    env.run()
    assert seen == [
        ("alone", True),
        ("crowded", False),
        ("last-in-its-instant", True),
        ("behind-a-zero-delay-event", False),
    ]


# -- put_nowait ---------------------------------------------------------------


def test_put_nowait_without_waiter_schedules_nothing():
    env = Environment()
    box = Mailbox(env)
    box.put_nowait("a")
    box.put_nowait("b")
    assert env._queue == []
    assert list(box.items) == ["a", "b"]


def test_put_nowait_hands_item_to_waiter_without_a_sweep():
    env = Environment()
    box = Mailbox(env)
    got = []
    box.on_item(got.append)
    box.put_nowait("x")
    # handed straight to the waiter: nothing buffered, one wake scheduled
    assert box.pending == 0 and len(env._queue) == 1
    env.run()
    assert got == ["x"]


def test_on_item_on_nonempty_mailbox_is_served_without_a_sweep():
    env = Environment()
    box = Mailbox(env)
    box.put_nowait("a")
    box.put_nowait("b")
    got = []
    box.on_item(got.append)
    assert list(box.items) == ["b"]
    # the waiter's own wake is the only scheduled entry
    assert len(env._queue) == 1
    env.run()
    assert got == ["a"]


# -- Resource.request ---------------------------------------------------------


def test_request_grants_free_slots_without_scheduling():
    env = Environment()
    res = Resource(env, capacity=2)
    first = res.request()
    second = res.request()
    assert first.processed and second.processed
    assert res.count == 2
    assert env._queue == []
    assert first.usage_since == 0.0


def test_request_queues_when_full_and_is_granted_by_an_event():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    queued = res.request()
    assert not queued.triggered
    assert res.count == 1 and res.queue == [queued]
    held.cancel()
    assert res.count == 1 and res.queue == []
    assert queued.triggered and not queued.processed
    assert len(env._queue) == 1


def test_free_slot_request_yields_at_once_and_releases_in_with():
    env = Environment()
    res = Resource(env, capacity=1)
    marks = []

    def user():
        with res.request() as req:
            yield req  # already granted: resumes in the same step
            marks.append((env.now, res.count))
        marks.append(res.count)

    env.process(user())
    # Initialize and the process end; no grant event
    assert _drain(env) == 2
    assert marks == [(0.0, 1), 0]


def test_cancel_of_a_free_slot_grant_wakes_the_next_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    granted = []

    def waiter(name):
        with res.request() as req:
            yield req
            granted.append((name, env.now))
            yield env.timeout(1.0)

    env.process(waiter("a"))
    env.process(waiter("b"))
    env.call_later(2.0, held.cancel)
    env.run()
    assert granted == [("a", 2.0), ("b", 3.0)]


# -- order oracle ---------------------------------------------------------------


class PlainEnvironment(Environment):
    """The base kernel, unchanged; a strict subclass, so ``--sim-debug``
    does not redirect its construction."""

    __slots__ = ()


class TimeoutTimerEnvironment(Environment):
    """Reference kernel: ``call_later`` as a :class:`Timeout` whose
    callback makes the call, the shape a timer had before it became a
    bare heap entry."""

    __slots__ = ()

    def call_later(self, delay, fn, *args):
        self.timeout(delay, (fn, args)).callbacks.append(_call_value)


def _call_value(event):
    fn, args = event._value
    fn(*args)


class TimerError(Exception):
    pass


#: few distinct delays, so many entries fall due in the same instant
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])

#: ``("timer", delay, children)`` arms ``call_later``; its callback logs
#: and starts ``children``.  ``("sleep", delays)`` is a process yielding
#: timeouts, ``("event", delay)`` a process waiting on an event that a
#: timer succeeds, and ``("put",)`` / ``("get",)`` a ``Mailbox`` hand-off
#: (a ``get`` registers an ``on_item`` callback; one while another
#: callback waits is refused and logged).
#: A program is its top-level ops plus, optionally, ``(delay, position)``
#: of a timer whose function raises, armed before op ``position``.
LEAVES = st.one_of(
    st.tuples(st.just("sleep"), st.lists(DELAYS, min_size=1, max_size=3)),
    st.tuples(st.just("event"), DELAYS),
    st.tuples(st.just("put")),
    st.tuples(st.just("get")),
    st.tuples(st.just("timer"), DELAYS, st.just(())),
)
OPS = st.recursive(
    LEAVES,
    lambda children: st.tuples(
        st.just("timer"), DELAYS, st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=12,
)
PROGRAMS = st.tuples(
    st.lists(OPS, min_size=1, max_size=6),
    st.one_of(st.none(), st.tuples(DELAYS, st.integers(0, 5))),
)


def run_program(kernel, program):
    """Run ``program`` on a fresh ``kernel``; returns its
    ``(env.now, label)`` trace, ending in ``(now, "raised ...")`` when a
    timer's exception escaped ``run()``."""
    ops, fault = program
    env = kernel()
    box = Mailbox(env)
    trace = []

    def log(label):
        trace.append((env.now, label))

    def start(op, label):
        kind = op[0]
        if kind == "timer":
            env.call_later(op[1], fire, label, op[2])
        elif kind == "sleep":
            env.process(sleeper(label, op[1]))
        elif kind == "event":
            event = env.event()
            env.process(waiter(label, event))
            env.call_later(op[1], event.succeed, label)
        elif kind == "put":
            box.put_nowait(label)
        else:
            getter(label)

    def fire(label, children):
        log(label)
        for i, child in enumerate(children):
            start(child, f"{label}.{i}")

    def sleeper(label, delays):
        for i, delay in enumerate(delays):
            yield env.timeout(delay)
            log(f"{label}/slept{i}")

    def waiter(label, event):
        log(f"{label}/woke:{(yield event)}")

    def getter(label):
        try:
            box.on_item(lambda item: log(f"{label}/got:{item}"))
        except RuntimeError:
            log(f"{label}/refused")

    def boom(label):
        log(label)
        raise TimerError(label)

    for i, op in enumerate(ops):
        if fault is not None and fault[1] == i:
            env.call_later(fault[0], boom, "boom")
        start(op, str(i))
    if fault is not None and fault[1] >= len(ops):
        env.call_later(fault[0], boom, "boom")
    try:
        env.run()
    except TimerError as exc:
        trace.append((env.now, f"raised {exc.args[0]}"))
    return trace, list(box.items)


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
@example((
    [("timer", 0.0, (("timer", 0.0, ()), ("put",))), ("get",),
     ("event", 0.0), ("sleep", [0.0, 0.5]), ("timer", 0.5, (("get",),))],
    (0.5, 0),
))
def test_timers_fire_in_the_order_of_timeout_timers(program):
    expected = run_program(TimeoutTimerEnvironment, program)
    assert run_program(PlainEnvironment, program) == expected
    assert run_program(DebugEnvironment, program) == expected
