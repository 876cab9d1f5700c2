"""Core event types for the discrete-event simulation kernel.

The kernel follows the classic generator-coroutine design (popularized by
SimPy): simulation *processes* are Python generators that ``yield`` events;
the environment resumes a process when the yielded event is *triggered*.

Every event moves through three states:

``pending``
    created, not yet scheduled;
``triggered``
    scheduled on the environment's event heap with a value or an error;
``processed``
    its callbacks have run (processes waiting on it have been resumed).

Determinism matters for reproducible experiments, so the kernel orders
simultaneous events by ``(time, priority, insertion id)``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Initialize",
    "Process",
    "Interrupt",
    "Condition",
    "AnyOf",
    "AllOf",
]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Scheduling priority for events that must run before normal ones at the
#: same simulated instant (used for process initialization and interrupts).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Event:
    """An event that may happen at some point in simulated time.

    Callbacks are ``f(event)`` callables executed when the event is
    processed.  Processes register themselves as callbacks when they yield
    the event.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with (or its exception)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self} has not yet been triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure was handled by a waiter (suppresses crash)."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event re-raises the exception inside every process that
        waits on it; if nobody waits, the simulation crashes (unless the
        event is *defused*).
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, NORMAL)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} object at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulated time.

    Built only by :meth:`Environment.timeout`, which schedules it with its
    value already set.
    """

    __slots__ = ("delay",)

    def __repr__(self) -> str:
        return f"<Timeout({self.delay}) at {id(self):#x}>"


class Initialize(Event):
    """Internal event that starts a process when it is created."""

    __slots__ = ()

    def __init__(self, env, process: "Process"):
        super().__init__(env)
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        env.schedule(self, URGENT)


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to ``interrupt()``."""
        return self.args[0]


class _InterruptEvent(Event):
    """Immediate event that throws :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, env, process: "Process", cause: Any):
        super().__init__(env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks = [self._throw]
        env.schedule(self, URGENT)

    def _throw(self, event: Event) -> None:
        process = self.process
        if process._value is not PENDING:  # already terminated
            return
        # Unsubscribe the process from whatever it currently waits on, then
        # resume it with the failed interrupt event.
        if process._target is not None and process._target.callbacks is not None:
            try:
                process._target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._resume(self)


class Process(Event):
    """Wraps a generator so it can be executed by the environment.

    The process itself is an event that triggers when the generator
    terminates: with the ``return`` value on success, or with the raised
    exception on failure.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env, generator, name: Optional[str] = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits for (None if running)."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True until the wrapped generator has terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        _InterruptEvent(self.env, self, cause)

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value of ``event``."""
        env = self.env
        env._active_proc = self
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    # The event failed: re-raise inside the process.  Mark
                    # it defused -- the process had the chance to handle it.
                    event._defused = True
                    exc = event._value
                    next_event = generator.throw(exc)
            except StopIteration as exc:
                # Process finished successfully.
                self._ok = True
                self._value = exc.value
                env.schedule(self, NORMAL)
                break
            except BaseException as exc:
                # Process crashed.
                self._ok = False
                self._value = exc
                env.schedule(self, NORMAL)
                break

            if env._debug:
                env._check_yield(self, next_event)
            try:
                if next_event.callbacks is not None:
                    # Event not yet processed: wait for it.
                    next_event.callbacks.append(self._resume)
                    self._target = next_event
                    break
                # Event already processed: loop and resume immediately.
                event = next_event
            except AttributeError:
                msg = f"process {self.name!r} yielded a non-event: {next_event!r}"
                error = RuntimeError(msg)
                error.__cause__ = None
                self._ok = False
                self._value = error
                env.schedule(self, NORMAL)
                break
        env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process({self.name}) at {id(self):#x}>"


class Condition(Event):
    """Waits until ``need`` of ``events`` have succeeded, or one fails.

    Succeeds with ``None``: a waiter that needs a result reads it from the
    events themselves.  The first failed event fails the condition with
    its exception (and is defused, since the condition received it).
    """

    __slots__ = ("_need",)

    def __init__(self, env, events: list, need: int):
        super().__init__(env)
        for event in events:
            if event.env is not env:
                raise ValueError("events belong to different environments")
        self._need = need
        if not need:
            self.succeed()
            return
        # Immediately check events already processed; subscribe to the rest.
        for event in events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._need -= 1
        if not self._need:
            self.succeed()


class AllOf(Condition):
    """Condition that triggers when all ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        events = list(events)
        super().__init__(env, events, len(events))


class AnyOf(Condition):
    """Condition that triggers when any of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env, events: Iterable[Event]):
        events = list(events)
        super().__init__(env, events, min(1, len(events)))
