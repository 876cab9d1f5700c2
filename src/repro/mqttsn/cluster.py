"""Horizontally sharded MQTT-SN broker plane behind one logical endpoint.

One :class:`~repro.mqttsn.broker.MqttSnBroker` owning the whole UDP port
is the server's next bottleneck once batch servicing and indexed routing
are in place (paper Table IX fan-in): every datagram still serializes
through a single service callback.  :class:`BrokerCluster` partitions the
session space across N broker shards — consistent hashing on the MQTT-SN
*client id*, the same ring scheme the :class:`~repro.core.server.
TranslatorPool` uses for topics — so shards service their sessions in
parallel (multi-core scale-out in the simulated world) while devices
keep configuring a single broker address.

Layout (see ``docs/server-architecture.md``):

* a :class:`~repro.net.UdpShardDispatcher` owns the public port, peeks
  the message-type octet of each datagram (CONNECTs re-pin by client id,
  everything else follows the source endpoint's sticky pin) and forwards
  per-shard *bundles* per batch — ``broker_dispatch_fixed_s`` per
  bundle plus ``broker_dispatch_per_datagram_s`` per datagram, so heavy
  fan-in amortizes the fixed dispatch work;
* each shard is a stock ``MqttSnBroker`` servicing only its own
  sessions, sending replies through the shared front socket so the wire
  shows one endpoint;
* every shard's :class:`SubscriptionIndex` replicates its mutations into
  a cluster-wide **routing view** (same exact-map + wildcard-trie
  structure), so a PUBLISH arriving on shard A also matches subscribers
  homed on shard B; those deliveries travel as **inter-shard relay
  events** — staged during A's service batch, flushed once per batch,
  and delivered by B with B's own retry timers and
  ``delivery_failures`` accounting.

Session placement is policy-driven (the ``placement`` knob): the default
``"hash"`` policy keeps the historical pure client-id ring hash, while
``"p2c"`` places each *new* CONNECT by power-of-two-choices over live
per-shard load (sessions + socket queue depth) — under skewed client
populations the hash policy leaves the hottest shard with far more than
1/N of the sessions, and p2c restores near-even spread.  Either way a
**sticky placement table** records the chosen owner per client id so
CONNECT retransmissions, dispatcher repins, failover migration and
durable-client reconnects all agree; the (weighted) ring remains the
fallback for ids never explicitly placed.

A cluster of one is wire- and behaviour-identical to a standalone
broker: no dispatcher, no replication, no relay — the single shard binds
the public port directly.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Hashable, List, Optional, Tuple
from zlib import crc32

from ..calibration import SERVER_COSTS
from ..hashring import ConsistentHashRing
from ..net import Endpoint, Host, UdpShardDispatcher
from . import packets as pkt
from .broker import DEFAULT_BROKER_PORT, MqttSnBroker
from .topics import SubscriptionIndex

__all__ = [
    "BrokerCluster",
    "DEFAULT_BROKER_SHARDS",
    "PLACEMENT_POLICIES",
    "pick_two_choices",
]

#: the session placement policies: :class:`BrokerCluster` and
#: :class:`~repro.core.server.ServerConfig` validate against this list and
#: the harness offers it as the ``--broker-placement`` choices
PLACEMENT_POLICIES = ("hash", "p2c")


def pick_two_choices(
    candidates: List[int],
    load: Callable[[int], float],
    rng: random.Random,
) -> int:
    """Power-of-two-choices over ``candidates``: sample two distinct
    entries, return the one with the smaller ``load`` (ties break to the
    lower index, so the choice is deterministic given the rng state).

    The classic balls-into-bins result: sampling *two* bins and taking
    the emptier drops the expected maximum load from Θ(log n / log log n)
    to Θ(log log n) — almost all the benefit of a full scan at the cost
    of two probes.  Pure function of its arguments; the property suite
    pins that the result is always drawn from ``candidates``.
    """
    if not candidates:
        raise ValueError("pick_two_choices needs at least one candidate")
    if len(candidates) == 1:
        return candidates[0]
    a, b = rng.sample(candidates, 2)
    load_a, load_b = load(a), load(b)
    if load_a < load_b:
        return a
    if load_b < load_a:
        return b
    return min(a, b)

#: a single shard keeps the server byte-for-byte compatible with the
#: pre-cluster deployment; scale-out is opt-in through
#: :class:`~repro.core.server.ServerConfig`
DEFAULT_BROKER_SHARDS = 1


def _peek_frame(data: bytes) -> Tuple[Optional[int], bytes]:
    """``(message type octet, body)`` without a full decode.

    This is the classifier's whole protocol knowledge: the two framing
    layouts.  Anything malformed yields ``(None, b"")``, routes by
    sticky pin and lets the owning shard's decoder reject it.
    """
    if len(data) < 2:
        return None, b""
    if data[0] == 0x01:  # long frame: 0x01 + 2 length octets + type
        if len(data) < 4:
            return None, b""
        return data[3], data[4:]
    return data[1], data[2:data[0]]


def _peek_connect_client_id(data: bytes) -> Optional[str]:
    """Client id when ``data`` frames an MQTT-SN CONNECT, else None."""
    msg_type, body = _peek_frame(data)
    if msg_type != pkt.MT_CONNECT:
        return None
    if len(body) < 5:  # flags + protocol id + duration (2) + client id
        return None
    try:
        return body[4:].decode()
    except UnicodeDecodeError:
        return None


class _ReplicatedIndex(SubscriptionIndex):
    """A shard's subscription index that mirrors into the cluster view.

    Every mutation is replicated into the cluster's shared routing view
    together with the subscriber's home shard.  In cluster mode PUBLISH
    routing matches the shared view once (see :class:`_ClusterRelay`);
    the inherited local state keeps the shard self-describing and is
    what the broker's CONNECT/DISCONNECT paths clean up.
    """

    def __init__(self, cluster: "BrokerCluster", shard_index: int):
        super().__init__()
        self._cluster = cluster
        self._shard_index = shard_index

    def add(self, key: Hashable, pattern: str, qos: int = 0) -> None:
        super().add(key, pattern, qos)
        self._cluster.routing_view.add(key, pattern, qos)
        self._cluster._home[key] = self._shard_index

    def discard(self, key: Hashable, pattern: str) -> bool:
        if not super().discard(key, pattern):
            return False
        self._cluster.routing_view.discard(key, pattern)
        if not self._filters.get(key):
            # last filter gone: the key no longer homes here for relay
            self._cluster._home.pop(key, None)
        return True

    def remove(self, key: Hashable) -> None:
        super().remove(key)
        self._cluster.routing_view.remove(key)
        self._cluster._home.pop(key, None)


class _ClusterRelay:
    """Stages cross-shard deliveries and relays them one event per batch.

    ``route`` is called by a shard for every PUBLISH it forwards: one
    match over the cluster routing view (the shard-local index is a
    strict subset — matching both would double the hot-path work) whose
    hits are partitioned by home shard.  Local subscribers are staged
    straight back into the origin shard's batch; the rest are buffered
    per destination shard until ``flush``, which runs once per service
    batch and emits one relay event per destination — so back-to-back
    PUBLISHes crossing shards arrive as one coalesced group under a
    single retry timer, exactly like local deliveries.
    """

    def __init__(self, cluster: "BrokerCluster"):
        self._cluster = cluster
        self._staged: Dict[int, List[Tuple[object, str, pkt.Publish, int]]] = {}

    def route(self, origin: MqttSnBroker, topic_name: str, message: pkt.Publish) -> None:
        cluster = self._cluster
        origin_index = cluster.index_of(origin)
        for endpoint, sub_qos in cluster.routing_view.match(topic_name):
            home = cluster._home.get(endpoint)
            if home is None:
                continue
            qos = min(message.qos, sub_qos)
            if home == origin_index:
                session = origin.sessions.get(endpoint)
                if session is None:
                    continue
                cluster._record_delivery_origin(endpoint, origin_index)
                origin._stage_delivery(session, topic_name, message, qos)
            else:
                # bind to the session live *now* (the single broker's
                # dispatch-time rule: the subscription matched while it
                # was live, so a DISCONNECT or re-CONNECT racing the
                # relay hop does not unsend the delivery)
                session = cluster.shards[home].sessions.get(endpoint)
                if session is None:
                    continue
                cluster._record_delivery_origin(endpoint, origin_index)
                cluster._maybe_rehome(endpoint)
                self._staged.setdefault(home, []).append(
                    (session, topic_name, message, qos)
                )

    def flush(self, origin: MqttSnBroker) -> None:
        if not self._staged:
            return
        staged, self._staged = self._staged, {}
        cluster = self._cluster
        for index, entries in staged.items():
            cluster.relayed.record(len(entries))
            cluster.env.process(
                self._deliver(cluster.shards[index], entries),
                name=f"relay-deliver-{index}",
            )

    def _deliver(self, shard: MqttSnBroker, entries) -> None:
        # one relay hop per (origin batch, destination shard): the same
        # bundle + per-entry work the front dispatcher pays
        cluster = self._cluster
        yield cluster.env.timeout(
            cluster.dispatch_fixed_s
            + cluster.dispatch_per_datagram_s * len(entries)
        )
        if shard.crashed:
            # The destination died with this hop in flight.  Wait for the
            # watchdog to fail it over (which re-homes its subscriber
            # sessions), then re-route each entry to the new owner — a
            # relay must not become the loss window that the publisher's
            # QoS exchange already acknowledged past.
            yield cluster._failover_event(cluster.index_of(shard))
            cluster.relay_redirected.record(len(entries))
            regrouped: Dict[int, List] = {}
            for entry in entries:
                home = cluster._home.get(entry[0].endpoint)
                if home is None or not cluster.shards[home].alive:
                    cluster.relay_dropped.record()
                    continue
                regrouped.setdefault(home, []).append(entry)
            for home, group in regrouped.items():
                dest = cluster.shards[home]
                for session, topic_name, message, qos in group:
                    dest._stage_delivery(session, topic_name, message, qos)
                dest._flush_deliveries()
            return
        # A subscriber may have moved (shard-affinity rehome, failover
        # migration) while this hop was in flight: deliver each entry at
        # its *current* home — staging at a shard that no longer owns the
        # session would park outbound QoS state whose acks can never
        # arrive there.
        fallback = cluster.index_of(shard)
        regrouped = {}
        for entry in entries:
            home = cluster._home.get(entry[0].endpoint, fallback)
            if home != fallback and not cluster.shards[home].alive:
                home = fallback
            regrouped.setdefault(home, []).append(entry)
        for home, group in regrouped.items():
            dest = cluster.shards[home]
            for session, topic_name, message, qos in group:
                dest._stage_delivery(session, topic_name, message, qos)
            dest._flush_deliveries()


class BrokerCluster:
    """N broker shards behind one public endpoint.

    Constructor knobs mirror :class:`MqttSnBroker` and are applied to
    every shard; ``dispatch_fixed_s`` prices the front dispatcher and
    each inter-shard relay hop.

    ``placement`` selects the session-placement policy for new CONNECTs
    (see module docstring): ``"hash"`` (default, pure client-id ring
    hash) or ``"p2c"`` (power-of-two-choices on live shard load).  The
    ``REHOME_*`` constants govern **shard-affinity rehoming**: a
    subscriber whose deliveries overwhelmingly originate on another shard
    is voluntarily migrated there to turn relay hops into local
    deliveries (only when no in-flight QoS state would be stranded).
    """

    #: watchdog probe period: a killed shard is failed over this long
    #: after the kill (simulated seconds)
    FAILOVER_DETECT_S = 0.05
    #: relayed deliveries to one subscriber before a rehome is considered
    REHOME_MIN_DELIVERIES = 64
    #: the dominant remote origin must beat the home shard by this factor
    REHOME_MARGIN = 2.0

    def __init__(
        self,
        host: Host,
        port: int = DEFAULT_BROKER_PORT,
        shards: int = DEFAULT_BROKER_SHARDS,
        service_time_s: float = SERVER_COSTS.broker_per_packet_s,
        batch_fixed_s: float = SERVER_COSTS.broker_batch_fixed_s,
        dispatch_fixed_s: float = SERVER_COSTS.broker_dispatch_fixed_s,
        dispatch_per_datagram_s: float = SERVER_COSTS.broker_dispatch_per_datagram_s,
        max_batch: int = 64,
        retry_interval_s: float = 1.0,
        max_retries: int = 5,
        replicas: int = 32,
        placement: str = "hash",
    ):
        if shards <= 0:
            raise ValueError("broker cluster needs at least one shard")
        if placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {placement!r}; "
                f"expected one of {PLACEMENT_POLICIES}"
            )
        self.host = host
        self.env = host.env
        self.port = port
        self.dispatch_fixed_s = dispatch_fixed_s
        self.dispatch_per_datagram_s = dispatch_per_datagram_s
        self.placement = placement
        shard_kwargs = dict(
            service_time_s=service_time_s,
            batch_fixed_s=batch_fixed_s,
            max_batch=max_batch,
            retry_interval_s=retry_interval_s,
            max_retries=max_retries,
        )
        metrics = self.env.metrics
        self.relayed = metrics.counter("cluster", "relayed", host=host.name, port=port)
        if shards == 1:
            # wire-identical to a standalone broker: it binds the public
            # port itself; no dispatcher, no replication, no relay
            self.dispatcher = None
            self.routing_view: Optional[SubscriptionIndex] = None
            self._home: Dict[Endpoint, int] = {}
            self._ring: Optional[ConsistentHashRing] = None
            self.shards: List[MqttSnBroker] = [
                MqttSnBroker(host, port, **shard_kwargs)
            ]
        else:
            self.routing_view = SubscriptionIndex()
            self._home = {}
            self._ring = ConsistentHashRing(shards, replicas=replicas, salt="shard")
            self.dispatcher = UdpShardDispatcher(
                host,
                port,
                shards,
                classify=self._classify,
                dispatch_fixed_s=dispatch_fixed_s,
                dispatch_per_datagram_s=dispatch_per_datagram_s,
                max_batch=max_batch,
                on_repin=self._on_repin,
            )
            relay = _ClusterRelay(self)
            self.shards = [
                MqttSnBroker(
                    host,
                    port,
                    sock=self.dispatcher.sockets[i],
                    subscriptions=_ReplicatedIndex(self, i),
                    relay=relay,
                    **shard_kwargs,
                )
                for i in range(shards)
            ]
        self._index_by_id = {id(shard): i for i, shard in enumerate(self.shards)}
        # ---- placement state: see _place() / shard_of() ------------------
        #: sticky client-id -> shard decisions; consulted before any policy
        #: so CONNECT retransmissions, repins and durable reconnects agree
        self._placement: Dict[str, int] = {}
        self._p2c_rng = random.Random(crc32(f"{host.name}:{port}".encode()))
        self.p2c_placements = metrics.counter(
            "cluster", "p2c_placements", host=host.name, port=port)
        # ---- shard-affinity rehoming state: see _maybe_rehome() ----------
        #: per-subscriber delivery counts keyed by originating shard
        self._sub_origins: Dict[Endpoint, Dict[int, int]] = {}
        #: endpoints with a rehome decision already scheduled
        self._rehoming: set = set()
        # ---- failover state: see kill_shard() / _failover() --------------
        self.relay_redirected = metrics.counter(
            "cluster", "relay_redirected", host=host.name, port=port)
        self.relay_dropped = metrics.counter(
            "cluster", "relay_dropped", host=host.name, port=port)
        #: shards whose failover has completed (indices stay valid; a dead
        #: shard keeps its slot so ring/pin indices never shift)
        self._failed_over: set = set()
        self._failover_events: Dict[int, object] = {}
        self._watchdog = None

    # ------------------------------------------------------------ failover
    @property
    def alive_shards(self) -> List[int]:
        """Indices of shards that have not crashed."""
        return [i for i, s in enumerate(self.shards) if s.alive]

    def kill_shard(self, index: int) -> None:
        """Injectable kill hook: crash shard ``index`` and arm detection.

        The shard stops servicing immediately (datagrams already
        forwarded to it are lost, exactly like a crashed process losing
        its socket buffer); the cluster watchdog detects the dead shard
        after :attr:`FAILOVER_DETECT_S` and runs :meth:`_failover`.
        Durable clients ride their QoS retries into a reconnect and
        replay from the journal, so no acknowledged record is lost.
        The kill is a ``kill-shard`` event, the failover a ``failover``
        event.
        """
        if self._ring is None:
            raise ValueError("cannot fail over a single-shard cluster")
        shard = self.shards[index]
        if shard.alive:
            shard.crash()
            self.env.metrics.event("kill-shard", shard=index)
        self._failover_event(index)  # arms the watchdog

    def check_shards(self) -> List[int]:
        """Liveness probe: arm failover for any dead, unhandled shard.

        :meth:`kill_shard` calls this implicitly; it is public so a
        harness embedding its own fault source (e.g. a shard whose
        ``crash()`` it called itself rather than the kill hook) can trigger
        detection.  Returns the indices found dead and not yet failed
        over.
        """
        if self._ring is None:
            return []
        dead = [
            i for i, s in enumerate(self.shards)
            if not s.alive and i not in self._failed_over
        ]
        for index in dead:
            self._failover_event(index)
        return dead

    def _failover_event(self, index: int):
        """Event triggering once shard ``index`` has been failed over."""
        event = self._failover_events.get(index)
        if event is None:
            event = self._failover_events[index] = self.env.event()
            self._ensure_watchdog()
        return event

    def _ensure_watchdog(self) -> None:
        if self._watchdog is not None and self._watchdog.is_alive:
            return
        self._watchdog = self.env.process(
            self._watchdog_loop(),
            name=f"cluster-watchdog-{self.host.name}:{self.port}",
        )

    def _watchdog_loop(self):
        # Lazily-started, self-terminating liveness probe: it only runs
        # while a dead shard awaits failover, so a healthy cluster leaves
        # the event heap empty and ``env.run()`` can terminate.
        while True:
            yield self.env.timeout(self.FAILOVER_DETECT_S)
            for index, shard in enumerate(self.shards):
                if not shard.alive and index not in self._failed_over:
                    self._failover(index)
            if all(
                s.alive or i in self._failed_over
                for i, s in enumerate(self.shards)
            ):
                return

    def _failover(self, index: int) -> None:
        """Remove a dead shard from the plane and re-home its sessions.

        Subscriber sessions (they hold filters in the routing view) are
        *migrated*: the session object moves to the ring's new owner with
        its ``known_topic_ids`` cleared — topic ids are shard-local, so
        the new shard re-REGISTERs topics ahead of the next delivery —
        and its filters are re-added through the new shard's replicated
        index, which re-homes them for relay routing.  Publisher sessions
        are *dropped*: their in-flight QoS state names topic ids only the
        dead shard could resolve, so the honest move is to let the
        client's retry exhaustion trip its reconnect machinery — a fresh
        CONNECT classifies onto the shrunk ring and a durable client
        replays from its journal, deduplicated server-side.
        """
        dead = self.shards[index]
        self._failed_over.add(index)
        # invalidate sticky placements naming the corpse *before* re-homing:
        # reconnecting durable clients and the migration loop below must
        # both re-place through the live policy, not repin to the dead shard
        for client_id in [
            cid for cid, placed in self._placement.items() if placed == index
        ]:
            del self._placement[client_id]
        migrated = dropped = 0
        if len(self._ring.live_nodes()) <= 1:
            # the last shard died: there is no survivor to re-home onto;
            # drop the sessions and leave the (empty) ring alone so a
            # total-outage experiment still terminates cleanly
            self.dispatcher.invalidate_shard(index)
            for endpoint in list(dead.sessions):
                dead.subscriptions.remove(endpoint)
                self._sub_origins.pop(endpoint, None)
                dropped += 1
        else:
            self._ring.remove_node(index)
            self.dispatcher.invalidate_shard(index)
            for endpoint, session in list(dead.sessions.items()):
                filters = dead.subscriptions.subscriptions_of(endpoint)
                dead.subscriptions.remove(endpoint)  # replicated: view + home
                self._sub_origins.pop(endpoint, None)
                if not filters:
                    dropped += 1
                    continue
                # place through the live policy: p2c sees the survivors'
                # session counts shift as this loop migrates, hash falls
                # back to the shrunk ring (the historical behaviour)
                new_index = self._place(session.client_id)
                new = self.shards[new_index]
                if not new.alive:
                    # the new owner is a corpse awaiting its own failover
                    # (several shards died in the same detection window):
                    # migrating onto it just defers the drop, so be honest
                    dropped += 1
                    continue
                session.known_topic_ids.clear()
                new.sessions[endpoint] = session
                for pattern, qos in filters:
                    new.subscriptions.add(endpoint, pattern, qos)
                self.dispatcher.pins[endpoint] = new_index
                self._placement[session.client_id] = new_index
                migrated += 1
            self._rebalance_weights()
        dead.sessions.clear()
        dead._outbound.clear()
        self.env.metrics.event("failover", shard=index, migrated=migrated,
                               dropped=dropped)
        event = self._failover_events.get(index)
        if event is not None and not event.triggered:
            event.succeed()

    def _rebalance_weights(self) -> None:
        """Recompute ring weights from live per-shard session load.

        After a failover the survivors are uneven (one of them absorbed
        the dead shard's subscribers); biasing the ring's virtual points
        inversely to session count steers *future* ring-fallback traffic
        — hash placements and unpinned datagrams — toward the lighter
        shards.  Weights are clamped to [0.25, 4] so no shard ever loses
        (or monopolises) the key space outright.
        """
        alive = self.alive_shards
        if self._ring is None or len(alive) <= 1:
            return
        mean = sum(len(self.shards[i].sessions) for i in alive) / len(alive)
        for i in alive:
            weight = (mean + 1.0) / (len(self.shards[i].sessions) + 1.0)
            self._ring.set_weight(i, min(4.0, max(0.25, weight)))

    # ------------------------------------------------------------- routing
    def shard_of(self, client_id: str) -> int:
        """The shard index a client id homes to (side-effect free).

        Consults the sticky placement table first (so callers agree with
        whatever the CONNECT-time policy decided), then falls back to the
        weighted ring for ids never placed — which also keeps this a pure
        ring hash in the default configuration.
        """
        if self._ring is None:
            return 0
        placed = self._placement.get(client_id)
        if placed is not None and self.shards[placed].alive:
            return placed
        return self._ring.node_for(client_id)

    def _place(self, client_id: str) -> int:
        """Pick the owning shard for ``client_id`` (no recording).

        Sticky decisions are honoured while their shard is alive; new
        decisions go through the configured policy.  Callers that commit
        to the decision record it in ``self._placement`` themselves —
        the split keeps speculative calls (e.g. a migration target that
        turns out to be a corpse) from poisoning the sticky table.
        """
        if self._ring is None:
            return 0
        placed = self._placement.get(client_id)
        if placed is not None and self.shards[placed].alive:
            return placed
        if self.placement == "p2c":
            alive = self.alive_shards
            if alive:
                index = pick_two_choices(
                    alive,
                    lambda i: len(self.shards[i].sessions)
                    + self.shards[i].sock.pending,
                    self._p2c_rng,
                )
                self.p2c_placements.record()
                return index
        return self._ring.node_for(client_id)

    def index_of(self, shard: MqttSnBroker) -> int:
        return self._index_by_id[id(shard)]

    def _classify(
        self, payload: bytes, source: Endpoint, current: Optional[int]
    ) -> int:
        msg_type, _ = _peek_frame(payload)
        if msg_type == pkt.MT_CONNECT:
            client_id = _peek_connect_client_id(payload)
            if client_id is not None:
                index = self._place(client_id)
                self._placement[client_id] = index
                return index
        elif msg_type == pkt.MT_DISCONNECT and current is not None:
            # the session ends at its shard; release the sticky pin once
            # this datagram has been forwarded (zero-delay event, so the
            # DISCONNECT itself still routes by the pin) — churning
            # endpoints must not accrete dispatcher state forever
            self.env.process(self._unpin_after_forward(source), name="dispatcher-unpin")
        if current is not None:
            return current
        # unpinned non-CONNECT traffic: route deterministically by source
        # so the owning shard's no-session accounting sees it (a single
        # broker would record dropped_no_session for exactly this case)
        return self._ring.node_for(f"{source[0]}:{source[1]}")

    def _unpin_after_forward(self, source: Endpoint):
        yield self.env.timeout(0)
        self.dispatcher.unpin(source)

    def _on_repin(self, source: Endpoint, old_index: int, new_index: int) -> None:
        """A source re-identified onto another shard: purge the old home.

        Mirrors the single broker, where a fresh CONNECT replaces the
        endpoint's previous session state and subscriptions.
        """
        old = self.shards[old_index]
        old.subscriptions.remove(source)
        old.sessions.pop(source, None)
        # in-flight QoS state towards this endpoint can never complete on
        # the old shard (its acks now route to the new pin): drop it
        # rather than retransmit to exhaustion and record spurious
        # delivery failures for a live, acking client
        for key in [k for k in old._outbound if k[0] == source]:
            del old._outbound[key]
        self._sub_origins.pop(source, None)

    # ----------------------------------------- subscription / session moves
    def _subscriber_shard(self, endpoint: Endpoint) -> int:
        """Index of the shard currently owning ``endpoint``'s session."""
        for index, shard in enumerate(self.shards):
            if endpoint in shard.sessions:
                return index
        raise KeyError(f"no session for endpoint {endpoint}")

    def move_subscription(
        self,
        old_endpoint: Endpoint,
        new_endpoint: Endpoint,
        pattern: str,
        qos: int = 0,
    ) -> None:
        """Atomically re-home one filter between two connected subscribers.

        The broker half of a control-plane subscription handover: the
        filter is discarded from ``old_endpoint``'s index and added under
        ``new_endpoint``'s in the same simulation instant, so routing
        never sees a gap (lost PUBLISHes) or an overlap (duplicates) the
        way a wire UNSUBSCRIBE/SUBSCRIBE pair would.  The receiving
        client must rebind its local dispatch (``MqttSnClient.
        bind_filter``); the elastic :class:`~repro.core.server.
        TranslatorPool` drives this when topic ranges move between
        workers.  Raises ``KeyError`` when either endpoint has no session
        or the old endpoint does not hold ``pattern``.
        """
        old_shard = self.shards[self._subscriber_shard(old_endpoint)]
        new_shard = self.shards[self._subscriber_shard(new_endpoint)]
        if not old_shard.subscriptions.discard(old_endpoint, pattern):
            raise KeyError(
                f"endpoint {old_endpoint} does not hold filter {pattern!r}"
            )
        new_shard.subscriptions.add(new_endpoint, pattern, qos)

    # -------------------------------------------- shard-affinity rehoming
    def _record_delivery_origin(self, endpoint: Endpoint, origin: int) -> None:
        origins = self._sub_origins.get(endpoint)
        if origins is None:
            origins = self._sub_origins[endpoint] = {}
        origins[origin] = origins.get(origin, 0) + 1

    def _maybe_rehome(self, endpoint: Endpoint) -> None:
        """Schedule a shard-affinity move when one remote origin dominates.

        Checked on the relay path only (local deliveries never motivate a
        move).  The decision runs in a zero-delay process so the session
        never moves in the middle of a routing match.
        """
        origins = self._sub_origins.get(endpoint)
        if origins is None or endpoint in self._rehoming:
            return
        total = sum(origins.values())
        if total < self.REHOME_MIN_DELIVERIES or total % 16:
            return
        home = self._home.get(endpoint)
        if home is None:
            return
        best = max(sorted(origins), key=lambda i: origins[i])
        if best == home or not self.shards[best].alive:
            return
        if origins[best] < self.REHOME_MARGIN * max(1, origins.get(home, 0)):
            return
        self._rehoming.add(endpoint)
        self.env.process(
            self._rehome_later(endpoint, best), name="cluster-rehome"
        )

    def _rehome_later(self, endpoint: Endpoint, new_index: int):
        yield self.env.timeout(0)
        try:
            self.rehome_subscriber(endpoint, new_index)
        finally:
            self._rehoming.discard(endpoint)

    def rehome_subscriber(self, endpoint: Endpoint, new_index: int) -> bool:
        """Voluntarily migrate one subscriber session to ``new_index``.

        Turns dominant relay traffic into local deliveries: the session
        object moves with ``known_topic_ids`` cleared (ids are
        shard-local; the new shard re-REGISTERs ahead of its next
        delivery), filters are re-added through the new shard's
        replicated index, and the dispatcher pin plus sticky placement
        follow.  Returns False — deferring, not failing — whenever the
        move is unsafe or moot: unknown session, same shard, a dead
        endpoint of the hop, or in-flight outbound QoS state on the old
        shard whose acknowledgements would be stranded by the move.
        """
        if self._ring is None:
            raise ValueError("cannot rehome on a single-shard cluster")
        try:
            old_index = self._subscriber_shard(endpoint)
        except KeyError:
            return False
        if old_index == new_index:
            return False
        old, new = self.shards[old_index], self.shards[new_index]
        if not old.alive or not new.alive:
            return False
        if any(key[0] == endpoint for key in old._outbound):
            return False
        session = old.sessions.get(endpoint)
        filters = old.subscriptions.subscriptions_of(endpoint)
        if session is None or not filters:
            return False
        old.subscriptions.remove(endpoint)
        del old.sessions[endpoint]
        session.known_topic_ids.clear()
        new.sessions[endpoint] = session
        for pattern, qos in filters:
            new.subscriptions.add(endpoint, pattern, qos)
        self.dispatcher.pins[endpoint] = new_index
        self._placement[session.client_id] = new_index
        self._sub_origins.pop(endpoint, None)
        self.env.metrics.event("rehome", subscriber=f"{endpoint[0]}:{endpoint[1]}",
                               old_shard=old_index, new_shard=new_index)
        return True

    # ----------------------------------------------------- delegated views
    @property
    def endpoint(self) -> Endpoint:
        """The single public address clients configure."""
        return (self.host.name, self.port)

    @property
    def sessions(self) -> Dict[Endpoint, object]:
        """All live sessions across shards (endpoints are disjoint)."""
        if len(self.shards) == 1:
            return self.shards[0].sessions
        merged: Dict[Endpoint, object] = {}
        for shard in self.shards:
            merged.update(shard.sessions)
        return merged

    @property
    def subscriptions(self) -> SubscriptionIndex:
        """Cluster-wide subscription state (the shared routing view)."""
        if self.routing_view is None:
            return self.shards[0].subscriptions
        return self.routing_view

    @property
    def topics(self):
        """Topic registry of shard 0 (registries are shard-local; ids
        are only meaningful between a client and its home shard)."""
        return self.shards[0].topics

    @property
    def retry_interval_s(self) -> float:
        return self.shards[0].retry_interval_s

    @retry_interval_s.setter
    def retry_interval_s(self, value: float) -> None:
        for shard in self.shards:
            shard.retry_interval_s = value

    @property
    def max_retries(self) -> int:
        return self.shards[0].max_retries

    @max_retries.setter
    def max_retries(self, value: int) -> None:
        for shard in self.shards:
            shard.max_retries = value

    # --------------------------------------------------------- observability
    def max_mean_session_ratio(self) -> float:
        """Session skew across live shards: the largest shard's sessions
        over the mean (1.0 = perfectly even, 0.0 with no session)."""
        counts = [len(self.shards[i].sessions) for i in self.alive_shards]
        mean = sum(counts) / len(counts) if counts else 0.0
        return max(counts) / mean if mean else 0.0

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        return (
            f"<BrokerCluster {self.host.name}:{self.port} "
            f"shards={len(self.shards)} sessions={len(self.sessions)} "
            f"placement={self.placement}>"
        )
