"""Server-plane fault injection: shard kills, worker crashes, backend outages.

:mod:`repro.net.faults` injects faults into *links* — the client plane's
threat model.  This module layers the server plane's threat model on
top: a :class:`ServerFaultInjector` drives deterministic faults into a
:class:`~repro.core.server.ProvLightServer` — killing broker shards (the
cluster watchdog must fail them over), crashing translator workers (the
pool supervisor must restart them) and partitioning the uplink to the
HTTP backend (the circuit breaker must open, spill and drain) — so a
Table IX-style run can execute under churn and assert zero loss.

:class:`ChaosProfile` is the reproducible-from-the-CLI face of the same
machinery: a compact spec string (``"kill-shard@2.0,flap-backend@1:0.5:3"``)
parsed into scheduled fault events, threaded through
``ExperimentSetup.chaos`` / ``--chaos``.  Beyond the
server plane it also schedules *client-plane* chaos — device
crash/restart churn on a :class:`~repro.net.fleet.FleetFaultInjector`
and whole-tier partitions and loss storms on a
:class:`~repro.net.continuum.ContinuumTopology` — so a continuum run
(``--topology`` x ``--chaos``) replays identically from its two spec
strings.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .faults import LinkFaultInjector
from .topology import Network

__all__ = ["ServerFaultInjector", "ChaosProfile", "ChaosEvent"]


class ServerFaultInjector:
    """Inject server-plane faults into one :class:`ProvLightServer`.

    Immediate controls (:meth:`kill_shard`, :meth:`crash_worker`) act
    synchronously; the scheduled ones return driving processes, so all
    timing lives on the simulation clock and a given schedule replays
    identically on every run.  ``network``/``backend_host`` are only
    needed for the backend-fault methods (they partition the server ↔
    backend link through a :class:`LinkFaultInjector`).  Each fault is
    recorded where it takes effect, in the run's event log
    (``env.metrics``): ``kill-shard`` by the cluster, ``crash-worker``
    by the worker's supervisor, ``partition-link``/``heal-link`` by the
    link injector.
    """

    def __init__(
        self,
        server,
        network: Optional[Network] = None,
        backend_host: Optional[str] = None,
    ):
        self.server = server
        self.env = server.env
        self.network = network
        self.backend_host = backend_host
        self._backend_faults: Optional[LinkFaultInjector] = None

    # -- broker shards ---------------------------------------------------
    def kill_shard(self, index: Optional[int] = None) -> int:
        """Kill one broker shard now; returns the index killed.

        Without an explicit index the *busiest* alive shard (most
        sessions, ties to the lowest index) dies — the worst case for
        the failover path, and a deterministic one.
        """
        cluster = self.server.broker
        if index is None:
            alive = cluster.alive_shards
            if not alive:
                raise ValueError("no alive shard to kill")
            index = max(alive, key=lambda i: (len(cluster.shards[i].sessions), -i))
        cluster.kill_shard(index)
        return index

    def kill_shard_at(self, after_s: float, index: Optional[int] = None):
        """Schedule :meth:`kill_shard` at ``now + after_s``."""
        if after_s < 0:
            raise ValueError("after_s must be >= 0")

        def _kill():
            yield self.env.timeout(after_s)
            self.kill_shard(index)

        return self.env.process(_kill(), name="chaos-kill-shard")

    # -- translator workers ----------------------------------------------
    def crash_worker(self, index: Optional[int] = None) -> int:
        """Crash one pool worker's work loop now; returns its position.

        Without an explicit index the worker with the deepest inbox
        (ties to the lowest position) crashes — maximizing the
        drained-but-unacked work the supervisor must requeue.
        """
        workers = self.server.pool.workers
        if index is None:
            index = max(
                range(len(workers)), key=lambda i: (workers[i].queued, -i)
            )
        workers[index].crash()
        return index

    def crash_worker_at(self, after_s: float, index: Optional[int] = None):
        """Schedule :meth:`crash_worker` at ``now + after_s``."""
        if after_s < 0:
            raise ValueError("after_s must be >= 0")

        def _crash():
            yield self.env.timeout(after_s)
            self.crash_worker(index)

        return self.env.process(_crash(), name="chaos-crash-worker")

    # -- backend uplink ---------------------------------------------------
    def _backend_injector(self) -> LinkFaultInjector:
        if self.network is None or self.backend_host is None:
            raise ValueError(
                "backend faults need network= and backend_host= (the "
                "injector partitions the server<->backend link)"
            )
        if self._backend_faults is None:
            self._backend_faults = LinkFaultInjector(
                self.network, self.server.host.name, self.backend_host
            )
        return self._backend_faults

    def backend_outage(self, after_s: float, duration_s: float):
        """Partition the backend uplink once: down at ``now + after_s``,
        healed ``duration_s`` later."""
        return self._backend_injector().partition_at(after_s, duration_s)

    def flap_backend(self, period_s: float, down_s: float, cycles: int):
        """Flap the backend uplink: every ``period_s`` it goes down for
        ``down_s``, ``cycles`` times."""
        return self._backend_injector().flap(period_s, down_s, cycles)

    def __repr__(self) -> str:
        return f"<ServerFaultInjector {self.server!r}>"


@dataclass(frozen=True)
class ChaosEvent:
    """One parsed fault from a chaos spec string."""

    kind: str
    index: Optional[int]
    args: Tuple[float, ...]
    #: non-numeric selector: device name (``crash-device:edge-3``) or
    #: tier pair (``partition-tier:edge-fog``)
    qualifier: Optional[str] = None


#: tier-pair qualifiers split on the dash; tier names are dash-free by
#: TopologySpec's grammar, so ``edge-fog`` parses unambiguously
_TIER_PAIR_RE = re.compile(r"[a-z][a-z0-9_]*-[a-z][a-z0-9_]*")


class ChaosProfile:
    """A reproducible schedule of server-, link- and device-plane faults.

    Spec grammar (comma-separated events, all times in simulated
    seconds)::

        kill-shard@AFTER              kill the busiest shard at AFTER
        kill-shard:2@AFTER            kill shard 2 at AFTER
        crash-worker@AFTER            crash the busiest worker at AFTER
        crash-worker:0@AFTER          crash worker position 0 at AFTER
        backend-outage@AFTER:DUR      partition the backend link once
        flap-backend@PERIOD:DOWN:N    N periodic backend outages
        crash-device@AFTER:DOWN       crash a deterministic device, restart
                                      DOWN seconds later (journal replay)
        crash-device:edge-3@AFTER:DOWN  same, naming the victim
        churn@AFTER:FRACTION:DOWN     crash FRACTION of the fleet at once
        partition-tier:edge-fog@AFTER:DUR   cut every edge<->fog link
        degrade-tier:edge-fog@AFTER:DUR:LOSS  loss storm on a tier pair

    e.g. ``"churn@5:0.2:2,partition-tier:edge-fog@8:3"``.  Device and
    tier events target the *client plane*: :meth:`apply` schedules them
    on a :class:`~repro.net.fleet.FleetFaultInjector` and a
    :class:`~repro.net.continuum.ContinuumTopology` respectively.

    Every malformed or semantically impossible event — unknown kind,
    negative times, zero durations, an infinite or NaN argument, a churn fraction outside (0, 1], a
    flap whose DOWN exceeds its PERIOD — fails at :meth:`parse` time,
    before anything is provisioned.
    """

    _ARITY = {
        "kill-shard": 1,
        "crash-worker": 1,
        "backend-outage": 2,
        "flap-backend": 3,
        "crash-device": 2,
        "churn": 3,
        "partition-tier": 2,
        "degrade-tier": 3,
    }
    _INDEXABLE = {"kill-shard", "crash-worker"}
    #: kinds whose ``kind:qualifier`` selector is a name, not an index
    _NAMED = {"crash-device"}
    #: kinds that require a ``tier-tier`` qualifier
    _TIER = {"partition-tier", "degrade-tier"}
    _SERVER = {"kill-shard", "crash-worker", "backend-outage", "flap-backend"}
    _FLEET = {"crash-device", "churn"}

    def __init__(self, events: List[ChaosEvent]):
        self.events: Tuple[ChaosEvent, ...] = tuple(events)

    @classmethod
    def parse(cls, spec: str) -> "ChaosProfile":
        events: List[ChaosEvent] = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            head, sep, tail = token.partition("@")
            if not sep:
                raise ValueError(
                    f"malformed chaos event {token!r}: expected kind@args"
                )
            kind, _, selector = head.partition(":")
            if kind not in cls._ARITY:
                raise ValueError(
                    f"unknown chaos event kind {kind!r}; known: "
                    f"{sorted(cls._ARITY)}"
                )
            index: Optional[int] = None
            qualifier: Optional[str] = None
            if selector:
                if kind in cls._INDEXABLE:
                    try:
                        index = int(selector)
                    except ValueError:
                        raise ValueError(
                            f"bad index {selector!r} in chaos event {token!r}"
                        ) from None
                    if index < 0:
                        raise ValueError(
                            f"index must be >= 0 in chaos event {token!r}"
                        )
                elif kind in cls._NAMED or kind in cls._TIER:
                    qualifier = selector
                else:
                    raise ValueError(f"{kind!r} does not take a selector")
            if kind in cls._TIER:
                if qualifier is None:
                    raise ValueError(
                        f"{kind!r} needs a tier-pair selector, e.g. "
                        f"'{kind}:edge-fog@...' (got {token!r})"
                    )
                if not _TIER_PAIR_RE.fullmatch(qualifier):
                    raise ValueError(
                        f"bad tier pair {qualifier!r} in chaos event "
                        f"{token!r}: expected two dash-joined tier names "
                        "(lowercase [a-z][a-z0-9_]*)"
                    )
            try:
                args = tuple(float(a) for a in tail.split(":"))
            except ValueError:
                raise ValueError(
                    f"bad arguments {tail!r} in chaos event {token!r}"
                ) from None
            if len(args) != cls._ARITY[kind]:
                raise ValueError(
                    f"{kind!r} takes {cls._ARITY[kind]} argument(s), "
                    f"got {len(args)} in {token!r}"
                )
            cls._validate_args(kind, args, token)
            events.append(
                ChaosEvent(kind=kind, index=index, args=args,
                           qualifier=qualifier)
            )
        if not events:
            raise ValueError(f"empty chaos spec {spec!r}")
        return cls(events)

    @staticmethod
    def _validate_args(kind: str, args: Tuple[float, ...], token: str) -> None:
        """Per-kind semantic validation; every rejection names the token."""
        def require(condition: bool, what: str) -> None:
            if not condition:
                raise ValueError(f"chaos event {token!r}: {what}")

        require(all(math.isfinite(a) for a in args),
                f"every argument must be finite, got {args}")
        if kind in ("kill-shard", "crash-worker"):
            require(args[0] >= 0, f"AFTER must be >= 0, got {args[0]}")
        elif kind == "backend-outage":
            require(args[0] >= 0, f"AFTER must be >= 0, got {args[0]}")
            require(args[1] > 0, f"DUR must be > 0, got {args[1]}")
        elif kind == "flap-backend":
            period, down, cycles = args
            require(down > 0, f"DOWN must be > 0, got {down}")
            require(period > down,
                    f"PERIOD must exceed DOWN, got {period} <= {down}")
            require(cycles >= 1 and cycles == int(cycles),
                    f"N must be a positive integer, got {cycles}")
        elif kind == "crash-device":
            require(args[0] >= 0, f"AFTER must be >= 0, got {args[0]}")
            require(args[1] > 0, f"DOWN must be > 0, got {args[1]}")
        elif kind == "churn":
            after, fraction, down = args
            require(after >= 0, f"AFTER must be >= 0, got {after}")
            require(0.0 < fraction <= 1.0,
                    f"FRACTION must be in (0, 1], got {fraction}")
            require(down > 0, f"DOWN must be > 0, got {down}")
        elif kind == "partition-tier":
            require(args[0] >= 0, f"AFTER must be >= 0, got {args[0]}")
            require(args[1] > 0, f"DUR must be > 0, got {args[1]}")
        elif kind == "degrade-tier":
            after, dur, loss = args
            require(after >= 0, f"AFTER must be >= 0, got {after}")
            require(dur > 0, f"DUR must be > 0, got {dur}")
            require(0.0 < loss < 1.0,
                    f"LOSS must be in (0, 1), got {loss}")

    # -- classification ----------------------------------------------------
    def requires_backend_link(self) -> bool:
        """True when the profile includes backend-link faults."""
        return any(
            e.kind in ("backend-outage", "flap-backend") for e in self.events
        )

    def server_events(self) -> List[ChaosEvent]:
        """Events targeting the server plane (shards/workers/backend)."""
        return [e for e in self.events if e.kind in self._SERVER]

    def fleet_events(self) -> List[ChaosEvent]:
        """Events targeting the device plane (crash-device, churn)."""
        return [e for e in self.events if e.kind in self._FLEET]

    def tier_events(self) -> List[ChaosEvent]:
        """Events targeting tier pairs (partition-tier, degrade-tier)."""
        return [e for e in self.events if e.kind in self._TIER]

    def requires_fleet(self) -> bool:
        """True when the profile needs a FleetFaultInjector to apply."""
        return bool(self.fleet_events())

    def requires_topology(self) -> bool:
        """True when the profile needs a ContinuumTopology to apply."""
        return bool(self.tier_events())

    def preflight(self, *, transport: str, broker_shards: int,
                  has_topology: bool, fleet_capture=None) -> None:
        """Reject, before any side effect, a profile the deployment cannot
        run; the experiment harness and the Provenance Manager both call it.

        ``transport`` is the run's canonical capture transport (or the
        baseline system's name); ``fleet_capture`` is the
        :class:`~repro.capture.CaptureConfig` of the fleet the caller
        crashes and restarts, ``None`` when it does not own the device
        lifecycle.
        """
        def require(condition: bool, why: str) -> None:
            if not condition:
                raise ValueError(why)

        require(transport == "mqttsn", "chaos profiles target the provlight "
                f"mqttsn server plane; got transport {transport!r}")
        require(not self.requires_backend_link(), "the backend is in-process "
                "(no server<->backend link); backend-outage/flap-backend events "
                "need a ServerFaultInjector wired with network= and backend_host=")
        require(broker_shards >= 2 or all(e.kind != "kill-shard" for e in self.events),
                "kill-shard chaos needs broker_shards >= 2 (a surviving shard "
                "must take over the killed shard's sessions)")
        require(has_topology or not self.requires_topology(), "partition-tier/"
                "degrade-tier chaos events need a continuum topology")
        if not self.requires_fleet():
            return
        require(fleet_capture is not None, "crash-device/churn events need a "
                "caller that owns the device lifecycle: the harness "
                "(run_capture_experiment) or a FleetFaultInjector")
        require(not fleet_capture.group_size, "crash-device/churn chaos needs "
                "group_size=0: a partially filled group buffer lives only in "
                "memory, so a crash would lose records already counted")
        require(fleet_capture.qos >= 1, "crash-device/churn chaos needs qos >= 1 "
                "(QoS 0 has no delivery contract, so a crashed uplink drops records)")

    def apply(self, injector: Optional[ServerFaultInjector] = None,
              fleet=None, topology=None) -> list:
        """Schedule every event on its plane; returns the processes.

        ``injector`` drives the server events, ``fleet`` (a
        :class:`~repro.net.fleet.FleetFaultInjector`) the device events
        and ``topology`` (a
        :class:`~repro.net.continuum.ContinuumTopology`) the tier
        events; omitting a plane the profile needs raises before
        anything is scheduled.
        """
        if self.server_events() and injector is None:
            raise ValueError(
                "this chaos profile has server-plane events but no "
                "ServerFaultInjector was provided"
            )
        if self.requires_fleet() and fleet is None:
            raise ValueError(
                "this chaos profile has device-plane events "
                "(crash-device/churn) but no FleetFaultInjector was "
                "provided"
            )
        if self.requires_topology() and topology is None:
            raise ValueError(
                "this chaos profile has tier-pair events "
                "(partition-tier/degrade-tier) but no ContinuumTopology "
                "was provided"
            )
        procs = []
        for event in self.events:
            if event.kind == "kill-shard":
                procs.append(injector.kill_shard_at(event.args[0], event.index))
            elif event.kind == "crash-worker":
                procs.append(
                    injector.crash_worker_at(event.args[0], event.index)
                )
            elif event.kind == "backend-outage":
                procs.append(injector.backend_outage(*event.args))
            elif event.kind == "flap-backend":
                period, down, cycles = event.args
                procs.append(injector.flap_backend(period, down, int(cycles)))
            elif event.kind == "crash-device":
                after, down = event.args
                procs.append(
                    fleet.crash_restart_at(after, down, event.qualifier)
                )
            elif event.kind == "churn":
                procs.append(fleet.churn_at(*event.args))
            elif event.kind == "partition-tier":
                a, b = event.qualifier.split("-")
                procs.append(
                    topology.partition_tiers_at(a, b, *event.args)
                )
            elif event.kind == "degrade-tier":
                a, b = event.qualifier.split("-")
                after, dur, loss = event.args
                procs.append(
                    topology.degrade_tiers_at(a, b, after, dur, loss)
                )
        return procs

    def __repr__(self) -> str:
        return f"<ChaosProfile events={len(self.events)}>"
