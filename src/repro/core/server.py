"""The ProvLight server: sharded MQTT-SN broker plane + sharded translators.

Mirrors the paper's Fig. 3/Fig. 5 deployment: an RSMB-style broker
receives the devices' publishes; translators subscribe, decode/decompress
the payloads, translate them (default: to the DfAnalyzer model) and hand
them to a backend — either an in-process store or an HTTP endpoint of a
provenance system.

Two layers of the server shard by consistent hashing (the same ring,
:class:`~repro.hashring.ConsistentHashRing`):

* the **broker plane** is a :class:`~repro.mqttsn.BrokerCluster` of
  ``broker_shards`` broker instances behind one endpoint (client ids
  shard onto brokers; ``broker_shards=1``, the default, is
  wire-identical to a single standalone broker);
* the **translator plane** is a :class:`TranslatorPool`: topics shard
  across K workers, each owning one MQTT-SN subscriber client and
  draining its inbox in batches.  A thousand device topics therefore
  cost K subscriber clients, not a thousand.  The pool is
  **elastic** when ``min_workers < max_workers``: a
  :class:`PoolAutoscaler` watches sustained inbox depth and grows or
  shrinks the worker count, re-homing each moved topic range through
  the ring's ~1/K remap with an exactly-once, order-preserving
  hold-buffer handover (see :meth:`TranslatorPool._migrate`).

Every server-plane knob lives in one frozen :class:`ServerConfig`.

Backends follow a uniform generator protocol: ``ingest(translated)``
and ``ingest_batch(batch)`` return an iterable of simulation events.
Synchronous backends deliver inline and return no events; network
backends return a generator that yields the I/O events of the request.
Pool workers call ``ingest_batch`` once per *drained worker batch*, which
lets a network backend pipeline the whole batch into one bulk request
instead of one POST per translated group; the CoAP sink calls
``ingest``.  An ``ingest_batch`` that fails after delivering the first
``n`` groups sets ``delivered = n`` on the exception it raises: the
worker marks those groups and requeues only the rest.
"""

from __future__ import annotations

import json
import os
import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..calibration import SERVER_COSTS, ServerCosts
from ..hashring import ConsistentHashRing
from ..mqttsn import (
    DEFAULT_BROKER_PORT,
    DEFAULT_BROKER_SHARDS,
    PLACEMENT_POLICIES,
    BrokerCluster,
    MqttSnClient,
)
from ..mqttsn.topics import topic_matches
from ..net import Endpoint, Host
from ..simkernel import Mailbox
from .translator import IngestFront

if TYPE_CHECKING:
    from .resilience import CircuitBreaker, RetryPolicy

__all__ = [
    "ProvLightServer",
    "ServerConfig",
    "TranslatorPool",
    "PoolAutoscaler",
    "CallableBackend",
    "HttpBackend",
    "DEFAULT_TRANSLATOR_WORKERS",
]

#: paper Table IX reproduces with 8 workers serving 64 device topics
DEFAULT_TRANSLATOR_WORKERS = 8


class CallableBackend:
    """Adapter delivering translated records to an in-process callable."""

    def __init__(self, fn: Callable[[Any], None]):
        self.fn = fn

    def ingest(self, translated: Any) -> Iterable:
        """Deliver inline; no simulation events to wait on."""
        self.fn(translated)
        return ()

    def ingest_batch(self, batch: Sequence[Any]) -> Iterable:
        """Deliver each group inline, in order — an in-process callable
        gains nothing from bulk framing, so the single-group behaviour
        is preserved group by group.  A failing group's error says how
        many groups before it were delivered (``delivered``)."""
        for done, translated in enumerate(batch):
            try:
                self.ingest(translated)
            except Exception as exc:
                exc.delivered = done
                raise
        return ()


class HttpBackend:
    """Adapter POSTing translated records to a provenance system's API.

    Failures flow through a :class:`~repro.core.resilience.RetryPolicy`
    (transient faults — connection loss, timeouts, 5xx — are retried
    with backoff; 4xx rejections raise :class:`BackendError` unretried)
    and a :class:`~repro.core.resilience.CircuitBreaker`.  While the
    breaker is open, ingest calls *spill* into a bounded in-memory queue
    instead of blocking a pool worker on a doomed request; a background
    drain delivers the spill once the backend recovers.  When the spill
    bound is hit, the oldest entries are shed (dropped, counted in
    :attr:`shed`) — under a long outage the backend degrades to keeping
    the freshest window rather than stalling the whole translator plane.

    ``timeout_s`` bounds each request on the simulation clock; a timed
    out request abandons the in-flight exchange, poisons the pooled
    connection (a late response must not be handed to the next request)
    and surfaces as a retryable :class:`BackendTimeout`.
    """

    def __init__(
        self,
        host: Host,
        endpoint: Endpoint,
        path: str = "/pde",
        timeout_s: float = 10.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        spill_limit: int = 512,
        drain_max_probes: int = 25,
    ):
        if timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        if spill_limit < 1:
            raise ValueError("spill_limit must be >= 1")
        # the HTTP stack and the resilience policies load with the first
        # network backend, not with every server
        from ..http import HttpSession
        from .resilience import CircuitBreaker, RetryPolicy

        self.session = HttpSession(host)
        self.env = host.env
        self.endpoint = endpoint
        self.path = path
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(host.env)
        )
        self.spill_limit = spill_limit
        self.drain_max_probes = drain_max_probes
        metrics, where = self.env.metrics, f"{endpoint[0]}:{endpoint[1]}"
        self.delivered = metrics.counter("backend", "delivered", endpoint=where)
        self.requests = metrics.counter("backend", "requests", endpoint=where)
        self.retries = metrics.counter("backend", "retries", endpoint=where)
        self.spilled = metrics.counter("backend", "spilled", endpoint=where)
        self.spill_drained = metrics.counter("backend", "spill_drained", endpoint=where)
        self.shed = metrics.counter("backend", "shed", endpoint=where)
        self._spill: deque = deque()
        self._drainer = None

    @property
    def pending_spill(self) -> int:
        """Translated groups parked in the spill queue."""
        return sum(groups for _, groups in self._spill)

    def ingest(self, translated: Any):
        # compact separators: backend POST bodies are real wire bytes in
        # the simulation, so whitespace would inflate every ingest
        body = json.dumps(translated, default=str, separators=(",", ":")).encode()
        yield from self._submit(body, 1)

    def ingest_batch(self, batch: Sequence[Any]):
        """Pipelined ingest: one bulk POST (a JSON array body) covers the
        whole drained batch.  A batch of one keeps the bare-object body,
        so light traffic stays wire-identical to the per-group path."""
        if len(batch) == 1:
            yield from self.ingest(batch[0])
            return
        body = json.dumps(list(batch), default=str, separators=(",", ":")).encode()
        yield from self._submit(body, len(batch))

    # ------------------------------------------------------------ internals
    def _post(self, body: bytes):
        """Generator: one POST, bounded by ``timeout_s`` on the sim clock."""
        from .resilience import BackendTimeout

        request = self.env.process(
            self.session.post(self.endpoint, self.path, body),
            name="backend-post",
        )
        timeout = self.env.timeout(self.timeout_s)
        yield self.env.any_of((request, timeout))
        if request.triggered:
            return request.value
        # Timed out: abandon the exchange.  The request process is still
        # parked inside the response read — defuse before interrupting so
        # its failure cannot crash the simulation — and the pooled
        # connection now carries a half-finished exchange, so poison it.
        request.defused = True
        request.interrupt("backend timeout")
        self.session.invalidate(self.endpoint)
        raise BackendTimeout(
            f"backend {self.endpoint} did not answer within {self.timeout_s}s"
        )

    def _submit(self, body: bytes, groups: int):
        """Generator: deliver ``body`` through retry + breaker, else spill."""
        from .resilience import BackendError, CircuitBreaker, RetryableBackendError

        if not self.breaker.allow():
            self._spill_body(body, groups)
            return
        attempt = 0
        while True:
            try:
                response = yield from self._post(body)
                if not response.ok:
                    if 500 <= response.status < 600:
                        raise RetryableBackendError(
                            f"backend unavailable: {response.status}"
                        )
                    raise BackendError(
                        f"backend rejected ingest: {response.status}"
                    )
            except BaseException as exc:
                if not self.retry.classify(exc):
                    raise
                self.breaker.record_failure()
                self.retries.record()
                attempt += 1
                if (
                    attempt >= self.retry.max_attempts
                    or self.breaker.state != CircuitBreaker.CLOSED
                ):
                    self._spill_body(body, groups)
                    return
                yield self.env.timeout(self.retry.delay(attempt - 1))
                continue
            self.breaker.record_success()
            for _ in range(groups):
                self.delivered.record()
            self.requests.record(len(body))
            if self._spill:
                self._ensure_drainer()
            return

    def _spill_body(self, body: bytes, groups: int) -> None:
        while len(self._spill) >= self.spill_limit:
            _, shed_groups = self._spill.popleft()  # load shedding: oldest first
            self.shed.record(shed_groups)
        self._spill.append((body, groups))
        self.spilled.record(groups)
        self._ensure_drainer()

    def _ensure_drainer(self) -> None:
        if self._drainer is None or not self._drainer.is_alive:
            self._drainer = self.env.process(
                self._drain_loop(), name=f"backend-drain-{self.endpoint[0]}"
            )

    def _drain_loop(self):
        """Deliver the spill once the breaker lets requests through again.

        Self-terminating: it parks (exits) after ``drain_max_probes``
        consecutive failed probes so a permanently-dead backend cannot
        keep the event heap alive forever — the next spill or successful
        ingest re-arms it.
        """
        from .resilience import RetryableBackendError

        misses = 0
        while self._spill:
            wait = max(
                self.breaker.time_until_probe(),
                self.retry.delay(min(misses, 6)),
            )
            yield self.env.timeout(wait)
            if not self.breaker.allow():
                misses += 1
                if misses >= self.drain_max_probes:
                    return
                continue
            body, groups = self._spill[0]
            try:
                response = yield from self._post(body)
                if not response.ok:
                    if 500 <= response.status < 600:
                        raise RetryableBackendError(
                            f"backend unavailable: {response.status}"
                        )
                    # fatal for this body only: shed it and keep draining
                    self._spill.popleft()
                    self.shed.record(groups)
                    continue
            except BaseException as exc:
                if not self.retry.classify(exc):
                    self._spill.popleft()
                    self.shed.record(groups)
                    continue
                self.breaker.record_failure()
                misses += 1
                if misses >= self.drain_max_probes:
                    return
                continue
            self.breaker.record_success()
            misses = 0
            self._spill.popleft()
            for _ in range(groups):
                self.delivered.record()
            self.requests.record(len(body))
            self.spill_drained.record(groups)


class _TranslatorWorker:
    """One pool worker: a subscriber client plus a batched work loop.

    The work loop runs under a supervisor (mirroring the capture
    client's sender supervision): an escaped exception — a backend
    raising a fatal error, or a fault injected through :meth:`crash` —
    is caught (a ``crash-worker`` event), the drained-but-unacked batch
    is requeued, and the loop restarts after a jittered backoff (a
    ``restart-worker`` event).  Requeued items are consumed
    before the inbox, and the server's dedup index is only *marked*
    after the backend accepted a batch, so a crash between drain and
    ingest re-processes the batch instead of losing it.
    """

    def __init__(self, server: "ProvLightServer", index: int, max_batch: int):
        self.server = server
        self.index = index
        self.max_batch = max(1, max_batch)
        self.env = server.env
        self.client = MqttSnClient(
            server.host,
            f"translator-{index}",
            (server.host.name, server.port),
        )
        #: backref set by the owning pool (elastic pools use it to wake
        #: the autoscale monitor on inbox puts)
        self.pool: Optional["TranslatorPool"] = None
        self._retired = False
        self.topic_filters: List[str] = []
        self._inbox = Mailbox(self.env)
        self._connected = False
        self._connect_gate = None
        self.last_failure: Optional[BaseException] = None
        #: items drained off the inbox but not yet acked by the backend;
        #: a restart replays them ahead of fresh inbox traffic (the inbox
        #: is strictly FIFO, so this preserves each client's seq order)
        self._requeue: List[Tuple[str, bytes]] = []
        self._inflight: List[Tuple[str, bytes]] = []
        self._pending_get = None
        self._batches_completed = 0
        self._rng = random.Random(zlib.crc32(f"translator-{index}".encode()))
        self._process = self.env.process(
            self._supervised_loop(), name=f"translator-{index}"
        )

    def crash(self, cause: Any = None) -> None:
        """Injectable fault hook: kill the work loop at its current yield.

        The supervisor catches the interrupt, requeues in-flight work and
        restarts the loop under backoff — this is exactly what a real
        worker process dying and being respawned looks like from the
        outside, minus the lost batch.
        """
        self._process.interrupt(cause if cause is not None else "injected crash")

    def retire(self) -> None:
        """Permanently stop this worker (elastic shrink path).

        Unlike :meth:`crash`, the supervisor does not restart a retired
        worker: the interrupt lands, the loop observes ``_retired`` and
        exits.  The pool has already migrated every topic filter away
        and drained the queues before calling this, so there is no
        in-flight work to recover — only the abandoned inbox waiter to
        detach and the subscriber session to close.
        """
        self._retired = True
        process = self._process
        if process is not None and process.is_alive:
            # nobody waits on the worker process: defuse so the interrupt
            # cannot crash the whole simulation
            process.defused = True
            process.interrupt("retired")
        self._recover_inflight()
        if self._connected:
            self.client.disconnect()
            self._connected = False

    def attach(self, topic_filter: str):
        """Generator: subscribe this worker to ``topic_filter``."""
        yield from self._ensure_connected()
        yield from self.client.subscribe(topic_filter, self._on_message)
        self.topic_filters.append(topic_filter)
        return self

    def _on_message(self, topic: str, payload: bytes) -> None:
        """Inbound PUBLISH handler: enqueue and nudge the autoscaler."""
        self._inbox.put_nowait((topic, payload))
        if self.pool is not None:
            self.pool._wake_autoscaler()

    @property
    def endpoint(self) -> Endpoint:
        """This worker's subscriber endpoint as the broker sees it."""
        return (self.client.host.name, self.client.sock.port)

    def _has_pending(self, pattern: str) -> bool:
        """True while any queued/in-flight payload matches ``pattern``
        (the migration drain barrier)."""
        for stage in (self._inbox.items, self._requeue, self._inflight):
            for topic, _payload in stage:
                if topic_matches(pattern, topic):
                    return True
        return False

    def _ensure_connected(self):
        """Generator: connect the subscriber client exactly once, even when
        several attachments race on a cold worker.

        A failed connect is propagated to every waiter and the gate is
        reset first, so a later attach can retry instead of blocking on
        an event that can never trigger."""
        while not self._connected:
            if self._connect_gate is not None:
                yield self._connect_gate
                continue  # re-check: the connecting attach may have failed
            gate = self._connect_gate = self.env.event()
            try:
                yield from self.client.connect()
            except BaseException as exc:
                self._connect_gate = None
                gate.defused = True  # waiters may not exist; don't crash the sim
                gate.fail(exc)
                raise
            self._connected = True
            gate.succeed()

    @property
    def queued(self) -> int:
        """Payloads waiting in this worker's inbox (plus requeued work)."""
        return len(self._inbox.items) + len(self._requeue)

    # -- supervision -------------------------------------------------------
    #: restart backoff knobs (mirroring the capture client's sender
    #: supervision); per-instance overridable for tests
    restart_base_s = 0.05
    restart_factor = 2.0
    restart_max_s = 2.0
    restart_jitter = 0.1

    def _restart_delay(self, attempt: int) -> float:
        delay = min(
            self.restart_max_s, self.restart_base_s * (self.restart_factor ** attempt)
        )
        if self.restart_jitter:
            # deterministic per-worker jitter de-synchronises a pool whose
            # workers all crashed on the same backend fault
            delay *= 1.0 + self.restart_jitter * (2.0 * self._rng.random() - 1.0)
        return max(delay, 1e-9)

    def _supervised_loop(self):
        attempt = 0
        while True:
            try:
                yield from self._work_loop()
            except Exception as exc:  # includes injected Interrupts
                if self._retired:
                    return  # elastic shrink, not a fault: no restart
                self.env.metrics.event("crash-worker", worker=self.index)
                self.last_failure = exc
                self._recover_inflight()
                delay = self._restart_delay(attempt)
                attempt += 1
                if self._batches_completed:
                    # progress since the last crash: treat this one as
                    # fresh rather than escalating the backoff forever
                    attempt = 1
                    self._batches_completed = 0
                while True:
                    try:
                        yield self.env.timeout(delay)
                        break
                    except Exception as exc:
                        if self._retired:
                            return
                        # a crash landed while already restarting: record
                        # it and re-arm the backoff from scratch
                        self.env.metrics.event("crash-worker", worker=self.index)
                        self.last_failure = exc
                self.env.metrics.event("restart-worker", worker=self.index)

    def _recover_inflight(self) -> None:
        """Requeue whatever the crashed loop had drained but not acked."""
        pending = self._pending_get
        self._pending_get = None
        if pending is not None:
            if pending.triggered:
                # the get resolved in the same instant the crash landed:
                # the item was popped off the inbox for a dead consumer
                self._inflight.insert(0, pending.value)
            else:
                # abandoned waiter: cancel it or the inbox will feed the
                # next arriving item to an event nobody resumes on
                self._inbox.cancel(pending)
        if self._inflight:
            self._requeue = self._inflight + self._requeue
            self._inflight = []

    def _work_loop(self):
        server = self.server
        self._inflight = []
        while True:
            if self._requeue:
                batch = self._requeue[: self.max_batch]
                del self._requeue[: len(batch)]
            else:
                self._pending_get = self._inbox.get()
                first = yield self._pending_get
                self._pending_get = None
                batch = [first]
                if self.max_batch > 1:
                    batch.extend(self._inbox.drain(self.max_batch - 1))
            self._inflight = batch
            front = server.front
            costs = server.costs
            work = 0.0
            admitted = []
            sources = []  # the batch item of each admitted entry
            keys = set()
            for item in batch:
                entry = front.admit(item[1], keys)
                if entry is not None:
                    keys.add(entry[0])
                    work += costs.translate_per_message_s
                    if len(entry[1]) > 1:
                        work += costs.translate_group_fixed_s
                    admitted.append(entry)
                    sources.append(item)
            if not admitted:
                self._inflight = []
                continue
            # one CPU grant covers the whole drained batch: same simulated
            # work as per-message servicing, far fewer scheduler wakeups
            device = server.host.device
            if device is not None:
                yield from device.cpu.run(io_busy_s=work, tag="translator")
            else:
                yield self.env.timeout(work)
            # pipelined ingest: hand the backend the whole drained batch
            # (one bulk request for network backends).  No local holds
            # the backend across the next wait, so that
            # ProvLightServer.close() frees it.  A failure propagates to
            # the supervisor, which requeues the entries the backend did
            # not take, unmarked
            try:
                yield from server.backend.ingest_batch([t for _, _, t in admitted])
            except Exception as exc:
                front.failures.record()
                done = getattr(exc, "delivered", 0)
                front.accepted(admitted[:done])
                self._inflight = sources[done:]
                raise
            front.accepted(admitted)
            self._inflight = []
            self._batches_completed += 1

    def __repr__(self) -> str:
        return (
            f"<TranslatorWorker {self.index} filters={len(self.topic_filters)} "
            f"queued={self.queued}>"
        )


class PoolAutoscaler:
    """Pure hysteresis controller deciding grow/shrink for the pool.

    Feeds on the pool's total queued depth, smooths it into a
    *per-worker* EWMA and demands ``sustain`` consecutive out-of-band
    samples before acting, so transient bursts never resize the pool.

    The no-flap argument (pinned by a property test): with ``w >= 1``
    workers one grow divides the per-worker signal by at most 2
    (``w -> w + 1``) and one shrink multiplies it by at most 2, so
    requiring ``low_water <= high_water / 2`` guarantees a resize can
    never push a constant load across the *opposite* threshold.
    Smoothed state is reset after every resize (and re-seeded from the
    next sample) so stale EWMA history cannot overshoot the band either.
    """

    def __init__(
        self,
        min_workers: int,
        max_workers: int,
        *,
        high_water: float = 8.0,
        low_water: float = 2.0,
        alpha: float = 0.5,
        sustain: int = 3,
    ):
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if high_water <= 0 or low_water < 0:
            raise ValueError("water marks must be non-negative (high > 0)")
        if low_water * 2 > high_water:
            raise ValueError(
                "hysteresis requires low_water <= high_water / 2 "
                "(otherwise a single resize can cross the opposite band)"
            )
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if sustain < 1:
            raise ValueError("sustain must be >= 1")
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.high_water = high_water
        self.low_water = low_water
        self.alpha = alpha
        self.sustain = sustain
        self.ewma: Optional[float] = None
        self._up_streak = 0
        self._down_streak = 0

    def observe(self, queued: int, workers: int) -> int:
        """Feed one sample; returns +1 (grow), -1 (shrink) or 0 (hold)."""
        per_worker = queued / max(1, workers)
        if self.ewma is None:
            self.ewma = per_worker
        else:
            self.ewma = self.alpha * per_worker + (1 - self.alpha) * self.ewma
        if self.ewma > self.high_water and workers < self.max_workers:
            self._up_streak += 1
            self._down_streak = 0
            if self._up_streak >= self.sustain:
                self.reset()
                return 1
        elif self.ewma < self.low_water and workers > self.min_workers:
            self._down_streak += 1
            self._up_streak = 0
            if self._down_streak >= self.sustain:
                self.reset()
                return -1
        else:
            self._up_streak = self._down_streak = 0
        return 0

    def reset(self) -> None:
        """Forget smoothed state (after a resize the per-worker signal
        jumps discontinuously; history would only lag the new level)."""
        self.ewma = None
        self._up_streak = self._down_streak = 0


class TranslatorPool:
    """Worker pool sharding topics by consistent hashing — elastic
    between ``min_workers`` and ``max_workers``.

    The hash ring carries :attr:`REPLICAS` virtual points per worker, so
    adding topics spreads evenly and the worker serving a topic is a pure
    function of the topic name — no rebalancing state, no registry
    side effects, and the same layout regardless of the order topics
    are attached in (broker topic ids are sequential, so hashing on
    them would be order-dependent).

    By default ``min_workers == max_workers == size`` and the pool is
    fully static (no monitor process, byte-identical behaviour to the
    fixed pool).  With ``min_workers < max_workers`` a lazily-started,
    self-terminating monitor samples :attr:`queued` every
    :attr:`AUTOSCALE_INTERVAL_S` and feeds a :class:`PoolAutoscaler`; each
    grow/shrink re-homes exactly the ring's ~1/K topic share through the
    exactly-once hold-buffer handover of :meth:`_migrate`.
    """

    #: virtual points per worker on the hash ring
    REPLICAS = 32
    #: payloads one worker drains off its inbox per batch
    MAX_BATCH = 32
    #: autoscale monitor sampling period (simulated seconds)
    AUTOSCALE_INTERVAL_S = 0.25
    #: poll period of a migration or shrink drain (simulated seconds)
    DRAIN_POLL_S = 0.01

    def __init__(
        self,
        server: "ProvLightServer",
        size: int,
        *,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
    ):
        if size <= 0:
            raise ValueError("translator pool needs at least one worker")
        self.server = server
        self.env = server.env
        self.min_workers = size if min_workers is None else min_workers
        self.max_workers = size if max_workers is None else max_workers
        if self.min_workers < 1:
            raise ValueError("pool min_workers must be >= 1")
        if not self.min_workers <= size <= self.max_workers:
            raise ValueError(
                f"pool size {size} outside bounds "
                f"[{self.min_workers}, {self.max_workers}]"
            )
        self.autoscaler = PoolAutoscaler(self.min_workers, self.max_workers)
        self.workers = [
            _TranslatorWorker(server, i + 1, self.MAX_BATCH) for i in range(size)
        ]
        for worker in self.workers:
            worker.pool = self
        self._ring = ConsistentHashRing(size, replicas=self.REPLICAS, salt="worker")
        self._monitor = None

    def __len__(self) -> int:
        return len(self.workers)

    def worker_for(self, topic_filter: str) -> _TranslatorWorker:
        """The worker a topic shards to (stable, side-effect free)."""
        return self.workers[self._ring.node_for(topic_filter)]

    def attach(self, topic_filter: str):
        """Generator: route ``topic_filter`` to its shard and subscribe."""
        worker = self.worker_for(topic_filter)
        yield from worker.attach(topic_filter)
        return worker

    @property
    def queued(self) -> int:
        """Total payloads waiting across all worker inboxes."""
        return sum(worker.queued for worker in self.workers)

    # -- elasticity --------------------------------------------------------
    def _wake_autoscaler(self) -> None:
        """Arm the autoscale monitor (called on every worker inbox put).

        The monitor is lazily started and self-terminating — the event
        heap liveness rule: an idle pool at min size must leave the heap
        empty so ``env.run()`` without ``until`` can terminate.  A
        static pool (``max_workers == min_workers``) never starts it.
        """
        if self.max_workers <= self.min_workers:
            return
        if self._monitor is None or not self._monitor.is_alive:
            self._monitor = self.env.process(
                self._autoscale_loop(), name="translator-pool-autoscaler"
            )

    def _autoscale_loop(self):
        idle_ticks = 0
        while True:
            yield self.env.timeout(self.AUTOSCALE_INTERVAL_S)
            delta = self.autoscaler.observe(self.queued, len(self.workers))
            if delta > 0:
                yield from self._grow()
            elif delta < 0:
                yield from self._shrink()
            if self.queued == 0 and len(self.workers) <= self.min_workers:
                idle_ticks += 1
                if idle_ticks >= 2:
                    return  # parked; the next inbox put re-arms it
            else:
                idle_ticks = 0

    def _grow(self):
        """Generator: add one worker and migrate its ring share onto it."""
        if len(self.workers) >= self.max_workers:
            return
        index = len(self.workers)
        worker = _TranslatorWorker(self.server, index + 1, self.MAX_BATCH)
        worker.pool = self
        try:
            yield from worker._ensure_connected()
        except Exception:
            # broker unreachable: abandon the attempt quietly; the next
            # sustained signal retries with a fresh worker
            self.env.metrics.event("grow-pool-failed", worker=worker.index)
            worker.retire()
            return
        new_ring = ConsistentHashRing(
            index + 1, replicas=self.REPLICAS, salt="worker"
        )
        # the ring-subset property: exactly the filters the (K+1)-ring
        # assigns to the new node move; everything else stays put
        moves = []
        for owner in self.workers:
            for pattern in owner.topic_filters:
                if new_ring.node_for(pattern) == index:
                    moves.append((pattern, owner))
        self.workers.append(worker)
        self._ring = new_ring  # new attaches land by the grown layout
        for pattern, owner in moves:
            yield from self._migrate(pattern, owner, worker)
        self.env.metrics.event("grow-pool", workers=len(self.workers))
        self.autoscaler.reset()

    def _shrink(self):
        """Generator: drain and retire the highest-index worker."""
        if len(self.workers) <= self.min_workers:
            return
        dying = self.workers[-1]
        new_ring = ConsistentHashRing(
            len(self.workers) - 1, replicas=self.REPLICAS, salt="worker"
        )
        self._ring = new_ring  # attaches during the drain land on survivors
        for pattern in list(dying.topic_filters):
            target = self.workers[new_ring.node_for(pattern)]
            yield from self._migrate(pattern, dying, target)
        while dying.queued or dying._inflight:
            yield self.env.timeout(self.DRAIN_POLL_S)
        self.workers.pop()
        dying.retire()
        self.env.metrics.event("shrink-pool", workers=len(self.workers))
        self.autoscaler.reset()

    def _migrate(self, pattern: str, old: _TranslatorWorker,
                 new: _TranslatorWorker):
        """Generator: hand ``pattern`` (and its queued traffic) from
        ``old`` to ``new`` with exactly-once, order-preserving delivery.

        The hold-buffer handover:

        1. bind a hold buffer for ``pattern`` on the new worker's client
           — deliveries routed there before the handover completes are
           parked, not processed;
        2. flip the filter at the broker's routing index in one
           simulation instant (``move_subscription``): no wire exchange,
           so routing never has a gap (lost PUBLISHes) or an overlap
           (duplicates);
        3. wait until the old worker has flushed every matching payload
           it already received — its handler stays bound meanwhile, so
           deliveries in flight toward the old subscriber when the index
           flipped still land in its inbox and drain in order;
        4. in one instant (no yield): unbind the old handler, move the
           hold buffer into the new worker's inbox, bind its live
           handler.  The old worker finished all matching work before
           any held item is processed, so each capture client's seq
           stream stays ordered across the handover.
        """
        yield from new._ensure_connected()
        broker = self.server.broker
        qos = 2
        for held_pattern, held_qos in (
            broker.subscriptions.subscriptions_of(old.endpoint)
        ):
            if held_pattern == pattern:
                qos = held_qos
                break
        hold: List[Tuple[str, bytes]] = []

        def collect(topic: str, payload: bytes) -> None:
            hold.append((topic, payload))

        new.client.bind_filter(pattern, collect)
        broker.move_subscription(old.endpoint, new.endpoint, pattern, qos)
        # always give in-flight deliveries toward the old subscriber one
        # poll interval to land before declaring the old worker clean
        yield self.env.timeout(self.DRAIN_POLL_S)
        while old._has_pending(pattern):
            yield self.env.timeout(self.DRAIN_POLL_S)
        old.client.unbind_filter(pattern)
        if pattern in old.topic_filters:
            old.topic_filters.remove(pattern)
        new.client.unbind_filter(pattern, collect)
        for item in hold:
            new._inbox.put_nowait(item)
        new.client.bind_filter(pattern, new._on_message)
        new.topic_filters.append(pattern)
        self.env.metrics.event("migrate-filter", pattern=pattern,
                               old_worker=old.index, new_worker=new.index)

    def __repr__(self) -> str:
        return (
            f"<TranslatorPool workers={len(self.workers)} "
            f"bounds=[{self.min_workers},{self.max_workers}] "
            f"queued={self.queued}>"
        )


@dataclass(frozen=True)
class ServerConfig:
    """Every server-plane knob of one ProvLight deployment, validated at
    construction.  :class:`ProvLightServer`, the experiment harness
    (``ExperimentSetup.server_config()``), the E2Clab Provenance Manager
    and :func:`~repro.capture.deploy_capture_sink` all take this one
    object."""

    #: translator pool size, clamped into the bounds by :attr:`pool_size`
    workers: int = DEFAULT_TRANSLATOR_WORKERS
    #: broker shards behind the endpoint; 1 is a single standalone broker
    broker_shards: int = DEFAULT_BROKER_SHARDS
    #: session placement across shards: ``"hash"`` (client-id ring hash)
    #: or ``"p2c"`` (power-of-two-choices on live shard load)
    broker_placement: str = "hash"
    #: elastic translator-pool bounds; an omitted bound is the pool size
    #: itself, so omitting both gives a static pool
    pool_min: Optional[int] = None
    pool_max: Optional[int] = None
    #: file the replay-dedup index is persisted to, so a restarted sink
    #: keeps rejecting ``(client_id, seq)`` pairs it already ingested
    dedup_state_path: Optional[str] = None

    def __post_init__(self):
        for name in ("workers", "broker_shards", "pool_min", "pool_max"):
            value = getattr(self, name)
            if value is None and name.startswith("pool_"):
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.broker_placement not in PLACEMENT_POLICIES:
            raise ValueError(f"broker_placement must be one of {PLACEMENT_POLICIES}, "
                             f"got {self.broker_placement!r}")
        if None not in (self.pool_min, self.pool_max) and self.pool_min > self.pool_max:
            raise ValueError(f"pool_min must be <= pool_max, got {self.pool_min} > {self.pool_max}")
        if not isinstance(self.dedup_state_path, (str, os.PathLike, type(None))):
            raise ValueError(f"dedup_state_path must be a path, got {self.dedup_state_path!r}")

    @property
    def pool_size(self) -> int:
        """Starting pool size: ``workers`` clamped into the pool bounds (the
        elastic envelope), so a static worker count outside it starts at
        the nearest bound instead of making the server refuse to start."""
        workers = max(self.workers, self.pool_min or 1)
        return min(workers, self.pool_max or workers)


class ProvLightServer:
    """Sharded broker plane + sharded translator pool on one (cloud) host.

    ``config`` sizes the :class:`~repro.mqttsn.BrokerCluster` behind
    :attr:`endpoint` (exposed as :attr:`broker`, which delegates the
    standalone broker's surface at any shard count) and the translator
    pool, which device topics join through ``server.pool.attach(topic)``.
    """

    def __init__(
        self,
        host: Host,
        backend,
        port: int = DEFAULT_BROKER_PORT,
        costs: ServerCosts = SERVER_COSTS,
        cipher=None,
        config: ServerConfig = ServerConfig(),
    ):
        self.host = host
        self.env = host.env
        self.port = port
        self.backend = backend
        self.costs = costs
        self.config = config
        self.broker = BrokerCluster(
            host, port,
            shards=config.broker_shards,
            service_time_s=costs.broker_per_packet_s,
            batch_fixed_s=costs.broker_batch_fixed_s,
            dispatch_fixed_s=costs.broker_dispatch_fixed_s,
            placement=config.broker_placement,
        )
        self.pool = TranslatorPool(
            self, config.pool_size,
            min_workers=config.pool_min, max_workers=config.pool_max,
        )
        #: one front for every pool worker: its dedup index is
        #: server-wide, so re-sharding can never unsee a seq
        self.front = IngestFront(cipher=cipher,
                                 state_path=config.dedup_state_path,
                                 metrics=self.env.metrics)

    @property
    def endpoint(self) -> Endpoint:
        """Where clients should point their broker connection."""
        return (self.host.name, self.port)

    def close(self) -> None:
        """Drop the backend once the simulation is over (see
        :meth:`repro.http.HttpServer.close`)."""
        self.backend = None

    def __repr__(self) -> str:
        topics = sum(len(worker.topic_filters) for worker in self.pool.workers)
        return (
            f"<ProvLightServer {self.host.name}:{self.port} "
            f"workers={len(self.pool)} topics={topics}>"
        )
