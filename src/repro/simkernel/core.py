"""The simulation environment: clock, event heap and run loop.

The heap holds ``(time, priority, eid, target, args)``: an event with
``args`` ``None``, or a :meth:`Environment.call_later` timer, which is a
bare entry of its function and argument tuple and no event at all.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .events import (
    NORMAL,
    PENDING,
    AllOf,
    AnyOf,
    Event,
    Process,
    Timeout,
)
from .monitor import Metrics

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "set_default_environment_class",
    "default_environment_class",
]


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Signals :meth:`Environment.run` to return (internal)."""


#: When set, bare ``Environment(...)`` constructions build this subclass
#: instead (see :func:`set_default_environment_class`).  This is how
#: ``pytest --sim-debug`` swaps the whole suite onto the hazard-detecting
#: :class:`~repro.simkernel.debug.DebugEnvironment` without touching any
#: call site.
_default_environment_class: Optional[type] = None


def set_default_environment_class(cls: Optional[type]) -> None:
    """Override (or with ``None``, restore) what ``Environment()`` builds.

    ``cls`` must be a strict subclass of :class:`Environment`; explicit
    constructions of a subclass are never redirected.
    """
    global _default_environment_class
    if cls is not None and not (
        isinstance(cls, type) and issubclass(cls, Environment) and cls is not Environment
    ):
        raise TypeError(f"{cls!r} is not a strict Environment subclass")
    _default_environment_class = cls


def default_environment_class() -> Optional[type]:
    """The currently installed construction override (``None`` = base)."""
    return _default_environment_class


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in *seconds* (all repro subsystems use seconds).  The
    passage of time is driven exclusively by stepping through scheduled
    events; between events, time is frozen.

    Example::

        env = Environment()

        def worker(env):
            yield env.timeout(1.5)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 1.5 and proc.value == "done"
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_proc", "metrics")

    #: consulted once per process yield (see ``Process._resume``); the
    #: debug subclass flips it to route yields through hazard checks
    _debug = False

    def __new__(cls, *args, **kwargs):
        override = _default_environment_class
        if override is not None and cls is Environment:
            return object.__new__(override)
        return object.__new__(cls)

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []  # heap of (time, priority, eid, target, args)
        self._eid = 0
        self._active_proc: Optional[Process] = None
        #: the run's counters and event log (see :class:`Metrics`)
        self.metrics = Metrics(self)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None outside callbacks)."""
        return self._active_proc

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that fires ``delay`` seconds from now.

        Process waits make this hot, so it is the only constructor: it
        fills the slots and pushes the heap entry itself, without the
        ``Event.__init__`` and :meth:`schedule` frames.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay {delay} is not >= 0")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event.delay = delay
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, NORMAL, eid, event, None))
        return event

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` ``delay`` seconds from now.

        The fire-and-forget timer: the heap entry
        ``(now + delay, NORMAL, eid, fn, args)``, which :meth:`step` calls
        straight off the heap, so it fires where a :meth:`timeout` armed in
        its place would.  No event stands behind it to hold, wait on or
        cancel: use it for waits nobody yields on (retransmission
        watchdogs, packet propagation).  An exception raised by ``fn``
        propagates out of :meth:`step` like a crashed process would.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"delay {delay} is not >= 0")
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, NORMAL, eid, fn, args))

    def zero_delay_is_next(self) -> bool:
        """True when no heap entry is due at :attr:`now`, so a zero-delay
        event pushed now would be the very next step.

        The tail-position check.  A caller in tail position (its call is
        the last action of the step being processed: a
        :meth:`call_later` callback that returns right after it, or a
        process that yields a pending event right after it, when that
        process is the only waiter of the event that resumed it) may,
        on True, run the work such an event would have woken in place:
        the same program minus one step.  On False it must push
        ``call_later(0.0, ...)``, which takes exactly that event's
        ``(now, NORMAL, next id)`` slot.  Either way nothing is
        reordered.  A caller with more work after it in the same step
        must always push the timer.
        """
        queue = self._queue
        return not queue or queue[0][0] > self._now

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers once all ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers once any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed ``delay`` seconds from now."""
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, priority, eid, event, None))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next heap entry: call a timer's function, or run
        an event's callbacks.

        Raises :class:`EmptySchedule` when the queue is empty.
        """
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        self._now, _, _, event, args = heappop(queue)
        if args is not None:
            event(*args)
            return

        callbacks = event.callbacks
        if callbacks is None:  # already processed: it was scheduled twice
            return
        event.callbacks = None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # An unhandled failure crashes the simulation, mirroring an
            # uncaught exception in a thread you actually care about.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time) or an :class:`Event` (run until it
        triggers, returning its value).
        """
        at_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                at_event = until
                if at_event.callbacks is None:  # already processed
                    return at_event._value
                at_event.callbacks.append(_stop_simulation)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not be before the current time ({self._now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop.callbacks = [_stop_simulation]
                self.schedule(stop, NORMAL, at - self._now)

        step = self.step
        try:
            while True:
                step()
        except StopSimulation as exc:
            return exc.args[0] if exc.args else None
        except EmptySchedule:
            if at_event is not None and at_event._value is PENDING:
                raise RuntimeError(
                    f"no scheduled events left but {at_event!r} has not triggered"
                ) from None
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"


def _stop_simulation(event: Event) -> None:
    if not event._ok:
        event._defused = True
        raise event._value
    raise StopSimulation(event._value)
