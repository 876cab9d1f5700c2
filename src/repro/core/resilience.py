"""Backend resilience primitives: retry classification + circuit breaker.

The translator plane's backend is a remote provenance system; its
failures come in two flavours.  *Transient* faults (connection drops,
timeouts, 5xx responses) deserve bounded retries with backoff — the
request was fine, the moment was not.  *Fatal* faults (4xx rejections,
serialization errors) must not be retried: the same bytes will fail the
same way and every retry just burns a pool worker.

The :class:`CircuitBreaker` sits above the retry policy and protects the
whole worker pool from a *down* backend: after ``failure_threshold``
consecutive transient failures the breaker opens and ingest calls are
rejected immediately (the caller spills instead of blocking a worker on
a doomed request); after ``reset_timeout_s`` one half-open probe is let
through, and its outcome closes or re-opens the circuit.  This is the
classic closed → open → half-open automaton, driven entirely by the
simulation clock.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional

from ..simkernel import Environment

__all__ = [
    "BackendError",
    "RetryableBackendError",
    "BackendTimeout",
    "RetryPolicy",
    "CircuitBreaker",
]


class BackendError(RuntimeError):
    """The backend rejected an ingest for a non-transient reason."""


class RetryableBackendError(BackendError):
    """A transient backend failure worth retrying (5xx, connection loss)."""


class BackendTimeout(RetryableBackendError):
    """The backend did not answer within the configured timeout."""


class RetryPolicy:
    """Bounded exponential backoff with deterministic per-caller jitter.

    ``classify`` decides whether an exception is transient; network
    errors (``ConnectionError`` covers :class:`~repro.http.client.
    HttpRequestError`) and :class:`RetryableBackendError` are, anything
    else is fatal.  The jitter RNG is seeded from ``seed_key`` so a
    fleet of workers retrying after the same outage de-synchronises the
    same way on every run.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_s: float = 0.05,
        factor: float = 2.0,
        max_s: float = 2.0,
        jitter: float = 0.1,
        seed_key: str = "backend",
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_s = base_s
        self.factor = factor
        self.max_s = max_s
        self.jitter = jitter
        self._rng = random.Random(zlib.crc32(seed_key.encode("utf-8")))

    def classify(self, exc: BaseException) -> bool:
        """True when ``exc`` is transient (worth a retry)."""
        return isinstance(exc, (RetryableBackendError, ConnectionError))

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = min(self.max_s, self.base_s * (self.factor ** attempt))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return max(delay, 1e-9)


class CircuitBreaker:
    """Closed → open → half-open breaker on the simulation clock.

    Every state change is one ``breaker`` event (``state``: the state
    entered) in the run's event log."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        env: Environment,
        failure_threshold: int = 5,
        reset_timeout_s: float = 1.0,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be > 0")
        self.env = env
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        """Current automaton state, accounting for elapsed open time."""
        if self._state == self.OPEN and self.time_until_probe() <= 0:
            return self.HALF_OPEN
        return self._state

    def time_until_probe(self) -> float:
        """Seconds until an open breaker admits its half-open probe."""
        if self._state != self.OPEN:
            return 0.0
        return max(0.0, self._opened_at + self.reset_timeout_s - self.env.now)

    def allow(self) -> bool:
        """May a request be attempted right now?

        Closed: always.  Open: only once ``reset_timeout_s`` has elapsed,
        and then exactly one caller gets through as the half-open probe
        (the state flips to half-open so concurrent callers keep being
        rejected until the probe resolves).
        """
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and self._state == self.OPEN:
            # admit exactly one probe
            self._enter(self.HALF_OPEN)
            return True
        return False

    def record_success(self) -> None:
        """A request succeeded: close the circuit."""
        if self._state != self.CLOSED:
            self._enter(self.CLOSED)
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        """A transient request failure: count towards opening."""
        if self._state == self.HALF_OPEN:
            # the probe failed: straight back to open, restart the clock
            self._trip()
            return
        self._failures += 1
        if self._state == self.CLOSED and self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._enter(self.OPEN)
        self._failures = 0
        self._opened_at = self.env.now

    def _enter(self, state: str) -> None:
        self._state = state
        self.env.metrics.event("breaker", state=state)

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state}>"
