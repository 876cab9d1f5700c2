"""Measurement helpers for simulations.

* time-weighted statistics (mean CPU utilization over a run, mean queue
  length) — :class:`TimeWeighted`;
* one run's record of what happened — :class:`Metrics`, the registry
  every :class:`~repro.simkernel.Environment` owns as ``env.metrics``:
  its :class:`Counter` handles and one sim-timestamped event log.

All of them read the clock from the environment they were created with, so
they compose with any process without explicit time plumbing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["TimeWeighted", "Counter", "Metrics"]


class TimeWeighted:
    """Tracks a piecewise-constant value and integrates it over time.

    Typical use: ``cpu_busy = TimeWeighted(env, 0)``; set ``.value = 1``
    when the CPU starts work and back to ``0`` when it idles;
    ``mean()`` then returns utilization.
    """

    def __init__(self, env, initial: float = 0.0):
        self.env = env
        self._value = float(initial)
        self._last_change = env.now
        self._start = env.now
        self._integral = 0.0

    @property
    def value(self) -> float:
        return self._value

    @value.setter
    def value(self, new: float) -> None:
        now = self.env.now
        self._integral += self._value * (now - self._last_change)
        self._last_change = now
        self._value = float(new)

    def add(self, delta: float) -> None:
        """Adjust the current value by ``delta``."""
        self.value = self._value + delta

    def integral(self) -> float:
        """Integral of the value from creation until now."""
        return self._integral + self._value * (self.env.now - self._last_change)

    def mean(self) -> float:
        """Time-weighted mean since creation (0 if no time elapsed)."""
        elapsed = self.env.now - self._start
        if elapsed <= 0:
            return self._value
        return self.integral() / elapsed

    def reset(self) -> None:
        """Restart integration from the current instant."""
        self._start = self._last_change = self.env.now
        self._integral = 0.0


class Counter:
    """A simple named counter (events, bytes, messages)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.total = 0.0

    def record(self, amount: float = 1.0) -> None:
        self.count += 1
        self.total += amount

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0

    def __repr__(self) -> str:
        return f"<Counter {self.name}: n={self.count} total={self.total}>"


class Metrics:
    """One run's counters and event log (``env.metrics``).

    A *counter* counts messages, bytes or records: a component takes its
    :class:`Counter` handle once from :meth:`counter`, stores it under
    the attribute named ``name``, and its hot path calls ``record()`` on
    the handle.  An *event* is one occurrence of a fault or a control
    action (a shard killed, a failover, a pool resize), recorded once by
    :meth:`event`, stamped with the simulated time it took effect.
    Nothing here schedules anything, so recording never moves a run.
    """

    __slots__ = ("_env", "_counters", "_events")

    def __init__(self, env):
        self._env = env
        self._counters: List[tuple] = []  # (component, name, labels, Counter)
        self._events: List[tuple] = []  # (time, kind, fields)

    def counter(self, component: str, name: str, **labels: Any) -> Counter:
        """Register a new counter; returns its handle.  Label values are
        plain data (str, int), as are event fields."""
        counter = Counter(name)
        self._counters.append((component, name, labels, counter))
        return counter

    def event(self, kind: str, **fields: Any) -> None:
        """Append ``(now, kind, fields)`` to the event log."""
        self._events.append((self._env.now, kind, fields))

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The events of ``kind`` (all of them without one), oldest first,
        each ``{"t": time, "kind": kind, **fields}``."""
        return [
            {"t": t, "kind": k, **fields}
            for t, k, fields in self._events
            if kind is None or k == kind
        ]

    def summed(self, component: str, name: str, **labels: Any) -> Counter:
        """One counter summed over every registration of ``component``'s
        ``name`` whose labels include ``labels``."""
        summed = Counter(name)
        for comp, cname, clabels, counter in self._counters:
            if comp == component and cname == name and all(
                clabels.get(key) == value for key, value in labels.items()
            ):
                summed.count += counter.count
                summed.total += counter.total
        return summed

    def snapshot(self) -> Dict[str, Any]:
        """Every counter and event as plain JSON data (no reference into
        the run survives it)."""
        return {
            "counters": [
                {"component": comp, "name": name, "labels": dict(labels),
                 "count": counter.count, "total": counter.total}
                for comp, name, labels, counter in self._counters
            ],
            "events": self.events(),
        }

    def __repr__(self) -> str:
        return (
            f"<Metrics counters={len(self._counters)} "
            f"events={len(self._events)}>"
        )
