"""Client-plane fault injection: device crash/restart churn at fleet scale.

:class:`~repro.net.chaos.ServerFaultInjector` covers the server plane and
:class:`~repro.net.faults.LinkFaultInjector` the links; what was missing
is the continuum's dominant failure mode — the *devices themselves*
churning.  A crashed device loses every in-memory buffer instantly; on
restart the durable capture client recovers its WAL journal and replays
the unacknowledged suffix (see :mod:`repro.capture.journal`).

:class:`FleetFaultInjector` drives that cycle on the simulation clock for
a registered fleet of durable capture clients:

* :meth:`crash_device` closes a client mid-anything (dropping in-flight
  state exactly like ``close()`` documents: memory is lost, durable
  state never);
* :meth:`restart_device` builds a *new* client incarnation on the same
  journal via a registered restart callable, retries ``setup()`` under
  backoff until the network lets it through (restarting under an active
  partition must not crash the experiment), and records whether the
  incarnation came up with unacked entries to replay (a journal
  recovery; the first ``setup()`` of a :class:`FleetClientProxy`
  retries under the same backoff: burst loss can eat a whole
  CONNECT/REGISTER exchange);
* :meth:`churn_at` schedules the fleet-scale version: a deterministic
  sample of the fleet crashes at once and restarts ``down_s`` later —
  the 20%-churn acceptance scenario.

Workloads do not talk to a :class:`~repro.capture.CaptureClient`
directly under churn — a crash can land *inside* any ``capture()`` —
but to a :class:`FleetClientProxy`, which retries the interrupted call
on the next incarnation once it is up.  Only *completed* proxy calls
count toward :attr:`FleetClientProxy.records_completed`, making the
proxy the ground-truth ledger for zero-loss accounting (an interrupted
capture never journaled anything, so the retry cannot double-ingest).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

__all__ = ["FleetFaultInjector", "FleetClientProxy", "recovery_times"]

#: restart setup() retry backoff: base * factor**attempt, capped
_SETUP_RETRY_BASE_S = 0.2
_SETUP_RETRY_FACTOR = 1.6
_SETUP_RETRY_MAX_S = 2.0


def recovery_times(events: List[Dict[str, Any]]) -> List[float]:
    """Seconds from each ``crash-device`` event to its device's next
    ``device-up``, in restart order, read off a run's event list
    (``env.metrics.events()`` or a snapshot's ``"events"``); a device
    still down at the end has no entry."""
    crashed_at: Dict[str, float] = {}
    recovery_s: List[float] = []
    for event in events:
        if event["kind"] == "crash-device":
            crashed_at[event["device"]] = event["t"]
        elif event["kind"] == "device-up":
            recovery_s.append(event["t"] - crashed_at.pop(event["device"]))
    return recovery_s


class FleetClientProxy:
    """A stable capture façade over a churning client incarnation.

    Implements the uniform capture interface (``setup`` / ``capture`` /
    ``flush_groups`` / ``drain`` / ``now``) by delegating to the fleet's
    *current* incarnation for the device; when a call blows up because
    the incarnation crashed underneath it, the proxy waits for the
    restart and retries the call on the new one.  Any other exception —
    the client is open and current — is a real error and propagates,
    except in :meth:`setup`, which retries under the fleet's backoff.
    """

    def __init__(self, fleet: "FleetFaultInjector", name: str):
        self._fleet = fleet
        self._name = name
        #: proxy calls that ran to completion (the zero-loss ledger)
        self.records_completed = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def client(self):
        """The current incarnation (changes across restarts)."""
        return self._fleet.client_of(self._name)

    @property
    def now(self) -> float:
        return self._fleet.env.now

    def _superseded(self, client) -> bool:
        """True when ``client`` died or was replaced under the call."""
        return client.closed or self.client is not client

    def _retrying(self, call: Callable[[object], object]):
        """Generator: run ``call(client)`` against the current
        incarnation, retrying on the next one after a crash."""
        while True:
            client = self.client
            try:
                result = yield from call(client)
                return result
            except Exception:
                if not self._superseded(client):
                    raise
                yield from self._fleet.wait_up(self._name)

    def setup(self):
        """Generator: set up the current incarnation, retrying a failed
        ``setup()`` under the fleet's backoff (a lossy link can eat every
        CONNECT/REGISTER retransmission) as restarts do."""
        result = yield from self._retrying(self._fleet.setup_with_backoff)
        return result

    def capture(self, record, groupable: bool = True):
        yield from self._retrying(lambda c: c.capture(record, groupable))
        self.records_completed += 1

    def flush_groups(self):
        yield from self._retrying(lambda c: c.flush_groups())

    def drain(self):
        yield from self._retrying(lambda c: c.drain())

    def __getattr__(self, attr):
        # counters, config, transport knobs: read through to the
        # current incarnation
        return getattr(self.client, attr)

    def __repr__(self) -> str:
        return f"<FleetClientProxy {self._name} completed={self.records_completed}>"


class FleetFaultInjector:
    """Deterministic device churn for a fleet of durable capture clients.

    Tier-level faults are scheduled on a
    :class:`~repro.net.continuum.ContinuumTopology`; this class owns the
    device plane.  Each crash is a ``crash-device`` event and each
    completed restart a ``device-up`` event (``journal_recovery``: the
    incarnation came up with unacked entries to replay) in the run's
    event log.
    """

    def __init__(self, env, seed: int = 0):
        self.env = env
        self._rng = random.Random(seed)
        self._clients: Dict[str, object] = {}
        self._restarts: Dict[str, Callable[[], object]] = {}
        #: devices currently down: name -> gate event restarts succeed
        self._gates: Dict[str, object] = {}

    # -- registration ------------------------------------------------------
    def register(self, name: str, client, restart: Callable[[], object]) -> None:
        """Track one device: its live client and how to build the next
        incarnation (``restart()`` returns a fresh, not-yet-setup client
        on the *same* journal and client id)."""
        if name in self._clients:
            raise ValueError(f"device {name!r} already registered")
        self._clients[name] = client
        self._restarts[name] = restart

    def proxy(self, name: str) -> FleetClientProxy:
        """The churn-transparent capture façade for one device."""
        self.client_of(name)  # validate
        return FleetClientProxy(self, name)

    def client_of(self, name: str):
        try:
            return self._clients[name]
        except KeyError:
            raise KeyError(
                f"unknown device {name!r}; registered: {self.devices}"
            ) from None

    @property
    def devices(self) -> List[str]:
        return sorted(self._clients)

    @property
    def devices_down(self) -> List[str]:
        return sorted(self._gates)

    # -- immediate controls ------------------------------------------------
    def crash_device(self, name: Optional[str] = None) -> str:
        """Crash one device now (close its client); returns its name.

        Without a name a deterministic victim is drawn from the devices
        currently up (the injector's seeded RNG, so a schedule replays
        identically).
        """
        if name is None:
            up = [d for d in self.devices if d not in self._gates]
            if not up:
                raise ValueError("no device is up to crash")
            name = self._rng.choice(up)
        client = self.client_of(name)
        if name in self._gates:
            raise ValueError(f"device {name!r} is already down")
        self._gates[name] = self.env.event()
        self.env.metrics.event("crash-device", device=name)
        client.close()
        return name

    def restart_device(self, name: str):
        """Bring a crashed device back now; returns the driving process.

        The new incarnation is built immediately; ``setup()`` is retried
        under backoff until it succeeds (a restart during a partition
        parks here until the network heals), then the up-gate releases
        every waiter.
        """
        if name not in self._gates:
            raise ValueError(f"device {name!r} is not down")
        return self.env.process(
            self._restart_body(name), name=f"fleet-restart-{name}"
        )

    def _restart_body(self, name: str):
        client = self._restarts[name]()
        recovering = (
            getattr(client, "journal", None) is not None
            and client.journal.pending > 0
        )
        yield from self.setup_with_backoff(client)
        self._clients[name] = client
        self.env.metrics.event("device-up", device=name,
                               journal_recovery=recovering)
        gate = self._gates.pop(name)
        gate.succeed()

    def setup_with_backoff(self, client):
        """Generator: ``client.setup()``, retried under capped backoff
        until it succeeds; a client closed underneath it (a crash)
        re-raises instead, so the caller moves to the next incarnation."""
        attempt = 0
        while True:
            try:
                result = yield from client.setup()
                return result
            except Exception:
                if client.closed:
                    raise
                attempt += 1
                yield self.env.timeout(
                    min(
                        _SETUP_RETRY_MAX_S,
                        _SETUP_RETRY_BASE_S * _SETUP_RETRY_FACTOR ** attempt,
                    )
                )

    def wait_up(self, name: str):
        """Generator: resolve once the device's restart completed (a
        no-op when it is up)."""
        while name in self._gates:
            yield self._gates[name]

    # -- scheduled faults --------------------------------------------------
    def crash_restart_at(self, after_s: float, down_s: float,
                         name: Optional[str] = None):
        """Schedule one crash at ``now + after_s`` with a restart
        ``down_s`` later; returns the driving process."""
        if after_s < 0 or down_s <= 0:
            raise ValueError("after_s must be >= 0 and down_s > 0")

        def _cycle():
            yield self.env.timeout(after_s)
            victim = self.crash_device(name)
            yield self.env.timeout(down_s)
            yield self.restart_device(victim)

        return self.env.process(_cycle(), name="fleet-crash-restart")

    def churn_at(self, after_s: float, fraction: float, down_s: float):
        """Schedule fleet churn: at ``now + after_s`` a deterministic
        ``fraction`` of the registered fleet crashes at once, each
        restarting ``down_s`` later.  Returns the driving process."""
        if after_s < 0 or down_s <= 0:
            raise ValueError("after_s must be >= 0 and down_s > 0")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")

        def _churn():
            yield self.env.timeout(after_s)
            up = [d for d in self.devices if d not in self._gates]
            count = max(1, round(fraction * len(self._clients)))
            victims = self._rng.sample(up, min(count, len(up)))
            restarts = []
            for victim in victims:
                self.crash_device(victim)
            yield self.env.timeout(down_s)
            for victim in victims:
                restarts.append(self.restart_device(victim))
            for proc in restarts:
                yield proc

        return self.env.process(_churn(), name="fleet-churn")

    def __repr__(self) -> str:
        return (
            f"<FleetFaultInjector devices={len(self._clients)} "
            f"down={len(self._gates)}>"
        )
