"""Measurement helpers for simulations.

Two recurring needs in the evaluation harness:

* time-weighted statistics (mean CPU utilization over a run, mean queue
  length) — :class:`TimeWeighted`;
* event counters / byte counters with per-interval rates — :class:`Counter`
  and :class:`RateMeter`.

All of them read the clock from the environment they were created with, so
they compose with any process without explicit time plumbing.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TimeWeighted", "Counter", "RateMeter"]


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


class RateMeter:
    """Accumulates amounts and reports an average rate over elapsed time.

    Used for the paper's Fig. 6c "network usage (KB/s) during capture".
    """

    def __init__(self, env):
        self.env = env
        self._start: Optional[float] = None
        self._stop: Optional[float] = None
        self.total = 0.0

    def start(self) -> None:
        if self._start is None:
            self._start = self.env.now

    def stop(self) -> None:
        self._stop = self.env.now

    def record(self, amount: float) -> None:
        if self._start is None:
            self._start = self.env.now
        self.total += amount

    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        end = self._stop if self._stop is not None else self.env.now
        return max(0.0, end - self._start)

    def rate(self) -> float:
        """Average rate (amount per second); 0 if no time elapsed."""
        elapsed = self.elapsed()
        if elapsed <= 0:
            return 0.0
        return self.total / elapsed
