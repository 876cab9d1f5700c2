"""Runtime hazard detection for the simulation kernel.

Static analysis (:mod:`repro.analysis`) catches determinism hazards that
are visible in source — wall-clock reads, unseeded RNGs, dropped event
handles.  This module catches the ones only an *executing* kernel can
see.  :class:`DebugEnvironment` is a drop-in :class:`Environment`
subclass that turns silent kernel misuse into loud, attributable errors:

``cross-env-yield`` / ``cross-env-schedule`` / ``cross-env-run``
    An event owned by one :class:`Environment` was yielded from,
    scheduled on, or run-until on *another* environment.  The two
    environments have independent clocks and heaps, so the waiter either
    never resumes or resumes at a nonsense time.  A real bug class now
    that topology tests build one environment per tier by mistake.
``double-schedule``
    The same event was placed on the heap twice while still pending —
    the signature of a manual ``env.schedule`` of an already-triggered
    event.  The second processing is silently skipped by the base
    kernel; here it is loud.
``schedule-after-processed``
    An event whose callbacks already ran was scheduled again.  Waiters
    attached after the fact will never fire.
``non-monotonic``
    An event was scheduled with a negative or NaN delay (behind
    ``env.now``), or a heap entry was popped behind the clock or at NaN.  Time must never run backwards in a
    reproducible discrete-event run.
``unretrieved-failure``
    A failed event completed undefused with nobody to receive the
    exception — the simkernel analog of asyncio's "exception was never
    retrieved".  The base kernel already crashes the run; the debug
    kernel additionally records the hazard and annotates the exception
    with the event that carried it, so the crash is attributable.

All hazards except ``unretrieved-failure`` raise :class:`SimHazardError`
at the moment of misuse; ``unretrieved-failure`` re-raises the *original*
exception (annotated via ``add_note``) so intentional crash-propagation
semantics — and the tests that pin them — are preserved.  Every hazard,
fatal or not, is appended to :attr:`DebugEnvironment.hazards`.

Enable for a whole pytest run with ``pytest --sim-debug`` (see the repo
``conftest.py``), which routes every ``Environment()`` construction to
:class:`DebugEnvironment` via :func:`install_debug_environment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop
from typing import Any, List, Optional

from . import core
from .core import EmptySchedule, Environment
from .events import NORMAL, Event, Process, Timeout

__all__ = [
    "DebugEnvironment",
    "SimHazard",
    "SimHazardError",
    "install_debug_environment",
    "uninstall_debug_environment",
    "debug_environment_installed",
]


@dataclass(frozen=True)
class SimHazard:
    """One detected kernel-integrity hazard."""

    kind: str
    time: float
    event: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] t={self.time:g} {self.event}: {self.detail}"


class SimHazardError(RuntimeError):
    """A kernel-integrity hazard detected by :class:`DebugEnvironment`."""

    def __init__(self, hazard: SimHazard):
        super().__init__(str(hazard))
        self.hazard = hazard


class DebugEnvironment(Environment):
    """An :class:`Environment` that detects kernel misuse as it happens.

    Semantically identical to the base environment for correct programs
    (same event ordering, same clock, same results); incorrect programs
    fail loudly at the misuse site instead of corrupting the run.  The
    checks cost one set operation per scheduled event plus a few
    comparisons, so this is an opt-in debugging tool, not the default.
    """

    __slots__ = ("hazards", "_pending")

    #: consulted on the process-yield hot path (see ``Process._resume``)
    _debug = True

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self.hazards: List[SimHazard] = []
        self._pending: set = set()

    # -- hazard plumbing ---------------------------------------------------
    def _hazard(self, kind: str, event: Any, detail: str) -> None:
        hazard = SimHazard(kind, self._now, repr(event), detail)
        self.hazards.append(hazard)
        raise SimHazardError(hazard)

    # -- checked construction / scheduling ---------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Record the Timeout the base pushes, for double-schedule checks."""
        event = super().timeout(delay, value)
        self._pending.add(id(event))
        return event

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        owner = getattr(event, "env", None)
        if owner is not self:
            self._hazard(
                "cross-env-schedule", event,
                f"event owned by {owner!r} scheduled on {self!r}; each event "
                "must live on the environment that created it",
            )
        if event.callbacks is None:
            self._hazard(
                "schedule-after-processed", event,
                "event was scheduled again after its callbacks already ran "
                "(double trigger of a processed event)",
            )
        if not delay >= 0:
            self._hazard(
                "non-monotonic", event,
                f"scheduled {-delay:g}s into the past (now={self._now:g}); "
                "simulated time must never run backwards",
            )
        key = id(event)
        if key in self._pending:
            self._hazard(
                "double-schedule", event,
                "event is already on the schedule while still pending "
                "(double trigger — check env.schedule call sites)",
            )
        self._pending.add(key)
        super().schedule(event, priority, delay)

    # -- checked execution -------------------------------------------------
    def step(self) -> None:
        queue = self._queue
        if not queue:
            raise EmptySchedule()
        now, _, _, event, args = heappop(queue)
        if not now >= self._now:  # behind the clock, or NaN
            self._hazard(
                "non-monotonic", event,
                f"popped an entry at t={now:g} behind the clock "
                f"(now={self._now:g})",
            )
        self._now = now
        if args is not None:  # a call_later timer
            event(*args)
            return
        self._pending.discard(id(event))

        callbacks = event.callbacks
        if callbacks is None:
            return
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            hazard = SimHazard(
                "unretrieved-failure", self._now, repr(event),
                f"failed event completed undefused with {len(callbacks)} "
                f"callback(s); its exception {exc!r} was never retrieved "
                "(yield the event, or mark it defused if the failure is "
                "intentional)",
            )
            self.hazards.append(hazard)
            if isinstance(exc, BaseException):
                exc.add_note(f"sim-debug: {hazard}")
                raise exc
            raise SimHazardError(hazard)

    def run(self, until: Any = None) -> Any:
        if isinstance(until, Event) and until.env is not self:
            self._hazard(
                "cross-env-run", until,
                f"run(until=...) got an event owned by {until.env!r}; it can "
                "never trigger on this environment's heap",
            )
        return super().run(until)

    # -- process-yield hook (called from Process._resume when _debug) ------
    def _check_yield(self, process: Process, event: Any) -> None:
        owner = getattr(event, "env", None)
        if owner is not None and owner is not self:
            self._hazard(
                "cross-env-yield", event,
                f"process {process.name!r} yielded an event owned by "
                f"{owner!r}; the waiter would never be resumed by this "
                "environment",
            )

    def __repr__(self) -> str:
        return (
            f"<DebugEnvironment now={self._now} queued={len(self._queue)} "
            f"hazards={len(self.hazards)}>"
        )


def install_debug_environment() -> None:
    """Route every bare ``Environment()`` construction to
    :class:`DebugEnvironment` (process-wide, e.g. for ``pytest --sim-debug``)."""
    core.set_default_environment_class(DebugEnvironment)


def uninstall_debug_environment() -> None:
    """Restore bare ``Environment()`` constructions to the base class."""
    core.set_default_environment_class(None)


def debug_environment_installed() -> bool:
    """True while :func:`install_debug_environment` is in effect."""
    return core.default_environment_class() is DebugEnvironment
