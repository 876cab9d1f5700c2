"""Edge-to-cloud continuum topologies: tiered networks from a spec string.

Every scalability experiment so far ran on an ideal star (64 edge hosts,
one cloud host, one perfect link each).  The paper's subject is the
computing *continuum* — devices behind constrained, lossy uplinks, fog
aggregation layers, WAN hops to the cloud — so this module builds tiered
topologies over the existing :class:`~repro.net.topology.Network`
machinery and makes them reproducible from a one-line spec:

``edge:64:lossy-wireless,fog:4:wan-fog,cloud:1``

Each comma-separated element is one *tier*, leaf first, root last:
``name:count[:profile]``.  The optional profile names the
:class:`LinkProfile` shaping every **uplink** from that tier toward the
next one (the root tier has no uplink and takes no profile).  Hosts are
named ``{tier}-{index}`` and each host's uplink goes to parent
``index % parent_count``, giving balanced fan-in without configuration.

:data:`TOPOLOGY_PRESETS` names the four shapes the benchmarks compare
(``ideal``, ``constrained-edge``, ``lossy-wireless``, ``wan-fog``); a
preset name is accepted anywhere a spec string is
(``ExperimentSetup(topology="lossy-wireless")``,
``--topology lossy-wireless``).

The built :class:`ContinuumTopology` is also the tier-level fault
surface: :meth:`~ContinuumTopology.partition_tiers` cuts every link
between two adjacent tiers at once (a backhaul outage),
:meth:`~ContinuumTopology.degrade_tiers` raises their loss for a window
(a weather storm on the wireless segment), and both have ``*_at``
variants scheduled on the simulation clock so a
:class:`~repro.net.chaos.ChaosProfile` can drive them reproducibly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .link import Link
from .netem import parse_delay, parse_rate
from .topology import Network

__all__ = [
    "LinkProfile",
    "LINK_PROFILES",
    "TierSpec",
    "TopologySpec",
    "TOPOLOGY_PRESETS",
    "ContinuumTopology",
]

#: tier names must be dash-free so the ``partition-tier:edge-fog`` chaos
#: qualifier can split unambiguously on the dash
_TIER_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class LinkProfile:
    """Shape of one class of continuum link (a named netem recipe)."""

    name: str
    rate: str = "1Gbit"
    delay: str = "0.5ms"
    jitter: str = "0ms"
    loss: float = 0.0
    burst_loss: float = 0.0
    p_enter_burst: float = 0.0
    p_exit_burst: float = 0.5

    def __post_init__(self):
        # fail at profile definition, not first use
        parse_rate(self.rate)
        parse_delay(self.delay)
        parse_delay(self.jitter)
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(
                f"link profile {self.name!r}: loss must be in [0, 1), "
                f"got {self.loss}"
            )

    def bandwidth_bps(self) -> float:
        return parse_rate(self.rate)

    def delay_s(self) -> float:
        return parse_delay(self.delay)

    def jitter_s(self) -> float:
        return parse_delay(self.jitter)


#: the link classes the continuum benchmarks compare.  ``ideal`` is the
#: pre-existing star's link; ``constrained-edge`` is the paper's worst
#: evaluated uplink (25 Kbit/s, 23 ms — Tables VII/VIII);
#: ``lossy-wireless`` adds jitter plus Gilbert-Elliott burst loss (mean
#: burst 1/p_exit ≈ 3 packets at 60% in-burst drop); ``wan-fog`` is a
#: clean but long fog→cloud WAN hop.
LINK_PROFILES: Dict[str, LinkProfile] = {
    profile.name: profile
    for profile in (
        LinkProfile("ideal", rate="1Gbit", delay="0.5ms"),
        LinkProfile("constrained-edge", rate="25Kbit", delay="23ms"),
        LinkProfile(
            "lossy-wireless",
            rate="10Mbit",
            delay="40ms",
            jitter="5ms",
            loss=0.02,
            burst_loss=0.6,
            p_enter_burst=0.05,
            p_exit_burst=0.3,
        ),
        LinkProfile("wan-fog", rate="100Mbit", delay="80ms", loss=0.001),
    )
}


@dataclass(frozen=True)
class TierSpec:
    """One tier of a :class:`TopologySpec`: ``name:count[:profile]``."""

    name: str
    count: int
    #: profile of this tier's uplinks toward the next tier (None on the
    #: root tier, which has no uplink)
    profile: Optional[str] = None


class TopologySpec:
    """A parsed, validated topology spec (leaf tier first, root last)."""

    def __init__(self, tiers: List[TierSpec]):
        self.tiers: Tuple[TierSpec, ...] = tuple(tiers)

    @classmethod
    def parse(cls, spec: str) -> "TopologySpec":
        """Parse ``name:count[:profile],...`` (or a preset name).

        Every malformed shape fails loudly here — before any host or
        link exists — naming the offending token.
        """
        text = spec.strip()
        if text in TOPOLOGY_PRESETS:
            text = TOPOLOGY_PRESETS[text]
        tiers: List[TierSpec] = []
        seen = set()
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            parts = token.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"malformed tier {token!r}: expected name:count[:profile]"
                )
            name = parts[0]
            if not _TIER_NAME_RE.fullmatch(name):
                raise ValueError(
                    f"bad tier name {name!r} in {token!r}: tier names are "
                    "lowercase [a-z][a-z0-9_]* (no dashes — the "
                    "partition-tier:a-b chaos qualifier splits on the dash)"
                )
            if name in seen:
                raise ValueError(f"duplicate tier name {name!r} in {spec!r}")
            seen.add(name)
            try:
                count = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"bad host count {parts[1]!r} in tier {token!r}"
                ) from None
            if count < 1:
                raise ValueError(
                    f"tier {name!r} needs count >= 1, got {count}"
                )
            profile: Optional[str] = None
            if len(parts) == 3:
                profile = parts[2]
                if profile not in LINK_PROFILES:
                    raise ValueError(
                        f"unknown link profile {profile!r} in tier {token!r}; "
                        f"known: {sorted(LINK_PROFILES)}"
                    )
            tiers.append(TierSpec(name=name, count=count, profile=profile))
        if len(tiers) < 2:
            raise ValueError(
                f"topology spec {spec!r} needs at least two tiers "
                "(a leaf tier and a root tier)"
            )
        if tiers[-1].profile is not None:
            raise ValueError(
                f"root tier {tiers[-1].name!r} has no uplink and takes no "
                f"profile (got {tiers[-1].profile!r})"
            )
        return cls(tiers)

    # -- accessors ---------------------------------------------------------
    @property
    def leaf(self) -> TierSpec:
        return self.tiers[0]

    @property
    def root(self) -> TierSpec:
        return self.tiers[-1]

    def tier(self, name: str) -> TierSpec:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise KeyError(
            f"unknown tier {name!r}; tiers: {[t.name for t in self.tiers]}"
        )

    def scaled(self, leaf_count: int) -> "TopologySpec":
        """The same spec with the leaf tier resized to ``leaf_count``
        (how the harness fits a preset to ``n_devices``)."""
        if leaf_count < 1:
            raise ValueError(f"leaf_count must be >= 1, got {leaf_count}")
        leaf = TierSpec(self.leaf.name, leaf_count, self.leaf.profile)
        return TopologySpec([leaf, *self.tiers[1:]])

    def describe(self) -> str:
        parts = []
        for tier in self.tiers:
            text = f"{tier.name}:{tier.count}"
            if tier.profile:
                text += f":{tier.profile}"
            parts.append(text)
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"<TopologySpec {self.describe()}>"


#: named shapes the continuum benchmarks compare; a preset name is valid
#: anywhere a spec string is.  All share the 64-device fan-in of the
#: paper's Table IX (``TopologySpec.scaled`` resizes the leaf tier).
TOPOLOGY_PRESETS: Dict[str, str] = {
    "ideal": "edge:64:ideal,fog:4:ideal,cloud:1",
    "constrained-edge": "edge:64:constrained-edge,fog:4:ideal,cloud:1",
    "lossy-wireless": "edge:64:lossy-wireless,fog:4:wan-fog,cloud:1",
    "wan-fog": "edge:64:ideal,fog:4:wan-fog,cloud:1",
}


class ContinuumTopology:
    """A tiered network built from a :class:`TopologySpec`.

    ``root_host`` reuses an existing host (the provenance manager's, or
    the harness's ``cloud``) as the single root-tier host instead of
    creating one — the root tier's count must then be 1.
    ``device_factory(tier_name, index)`` may return a device to attach
    to each created host (return ``None`` for plain forwarding hosts).
    """

    def __init__(
        self,
        network: Network,
        spec: TopologySpec | str,
        root_host: Optional[str] = None,
        device_factory: Optional[Callable[[str, int], object]] = None,
    ):
        if isinstance(spec, str):
            spec = TopologySpec.parse(spec)
        self.network = network
        self.env = network.env
        self.spec = spec
        #: tier name -> host names, leaf tier first
        self._hosts: Dict[str, List[str]] = {}
        #: (lower, upper) adjacent tier pair -> both directions of every uplink
        self._links: Dict[Tuple[str, str], List[Link]] = {}
        #: pairs partitioned now
        self._partitioned: set = set()
        #: saved per-link uniform loss while a degradation is active
        self._degraded: Dict[Tuple[str, str], List[float]] = {}
        self._build(root_host, device_factory)

    # -- construction ------------------------------------------------------
    def _build(self, root_host, device_factory) -> None:
        spec = self.spec
        if root_host is not None:
            if spec.root.count != 1:
                raise ValueError(
                    f"root_host={root_host!r} reuses one existing host, but "
                    f"root tier {spec.root.name!r} has count {spec.root.count}"
                )
            if root_host not in self.network.hosts:
                raise KeyError(f"unknown root host {root_host!r}")
        for tier in spec.tiers:
            if tier is spec.root and root_host is not None:
                self._hosts[tier.name] = [root_host]
                continue
            names = []
            for i in range(tier.count):
                name = f"{tier.name}-{i}"
                device = device_factory(tier.name, i) if device_factory else None
                self.network.add_host(name, device=device)
                names.append(name)
            self._hosts[tier.name] = names
        for lower, upper in zip(spec.tiers, spec.tiers[1:]):
            profile = LINK_PROFILES[lower.profile or "ideal"]
            links = []
            for i, host in enumerate(self._hosts[lower.name]):
                parent = self._hosts[upper.name][i % upper.count]
                self.network.connect(
                    host,
                    parent,
                    bandwidth_bps=profile.bandwidth_bps(),
                    latency_s=profile.delay_s(),
                    jitter_s=profile.jitter_s(),
                    loss=profile.loss,
                )
                if profile.burst_loss > 0.0:
                    self.network.configure_link(
                        host,
                        parent,
                        burst_loss=profile.burst_loss,
                        p_enter_burst=profile.p_enter_burst,
                        p_exit_burst=profile.p_exit_burst,
                    )
                links += [self.network.link(host, parent),
                          self.network.link(parent, host)]
            self._links[(lower.name, upper.name)] = links

    # -- accessors ---------------------------------------------------------
    def hosts_in(self, tier: str) -> List[str]:
        """Host names of one tier (validates the tier name)."""
        self.spec.tier(tier)
        return list(self._hosts[tier])

    @property
    def edge_hosts(self) -> List[str]:
        """Hosts of the leaf tier."""
        return self.hosts_in(self.spec.leaf.name)

    @property
    def root(self) -> str:
        """The single root host (raises if the root tier has several)."""
        hosts = self._hosts[self.spec.root.name]
        if len(hosts) != 1:
            raise ValueError(
                f"root tier {self.spec.root.name!r} has {len(hosts)} hosts"
            )
        return hosts[0]

    def pair(self, a: str, b: str) -> Tuple[str, str]:
        """Normalize two tier names to the (lower, upper) adjacent pair."""
        self.spec.tier(a)
        self.spec.tier(b)
        if (a, b) in self._links:
            return (a, b)
        if (b, a) in self._links:
            return (b, a)
        raise ValueError(
            f"tiers {a!r} and {b!r} are not adjacent; adjacent pairs: "
            f"{sorted(self._links)}"
        )

    def links(self, a: str, b: str) -> List[Link]:
        """Both directions of every uplink between two adjacent tiers."""
        return list(self._links[self.pair(a, b)])

    def tier_partitioned(self, a: str, b: str) -> bool:
        """True while the tier pair is administratively partitioned."""
        return self.pair(a, b) in self._partitioned

    # -- tier-level faults -------------------------------------------------
    # A tier fault is one event (``partition-tier``/``heal-tier``,
    # ``degrade-tier``/``restore-tier``, with the pair as ``"lower-upper"``),
    # not one per uplink.
    def partition_tiers(self, a: str, b: str) -> None:
        """Cut every link between two adjacent tiers now (idempotent)."""
        pair = self.pair(a, b)
        if pair in self._partitioned:
            return
        self._partitioned.add(pair)
        self.env.metrics.event("partition-tier", pair="-".join(pair))
        for link in self._links[pair]:
            link.partition()

    def heal_tiers(self, a: str, b: str) -> None:
        """Restore every link between two adjacent tiers (idempotent)."""
        pair = self.pair(a, b)
        for link in self._links[pair]:
            link.heal()
        if pair in self._partitioned:
            self._partitioned.remove(pair)
            self.env.metrics.event("heal-tier", pair="-".join(pair))

    def partition_tiers_at(self, a: str, b: str, after_s: float,
                           duration_s: float):
        """Schedule one whole-tier outage; returns the driving process."""
        pair = self.pair(a, b)
        if after_s < 0 or duration_s <= 0:
            raise ValueError("after_s must be >= 0 and duration_s > 0")

        def _outage():
            yield self.env.timeout(after_s)
            self.partition_tiers(*pair)
            yield self.env.timeout(duration_s)
            self.heal_tiers(*pair)

        return self.env.process(
            _outage(), name=f"chaos-partition-tier-{pair[0]}-{pair[1]}"
        )

    def degrade_tiers(self, a: str, b: str, loss: float) -> None:
        """Raise uniform loss on every link of the pair (a storm).

        The links' configured loss is saved and restored by
        :meth:`clear_degradation`; degrading an already-degraded pair
        re-degrades relative to the *original* loss, not the storm's.
        """
        if not 0.0 < loss < 1.0:
            raise ValueError(f"storm loss must be in (0, 1), got {loss}")
        pair = self.pair(a, b)
        links = self._links[pair]
        if pair not in self._degraded:
            self._degraded[pair] = [link.loss for link in links]
        self.env.metrics.event("degrade-tier", pair="-".join(pair), loss=loss)
        for link in links:
            link.configure(loss=loss)

    def clear_degradation(self, a: str, b: str) -> None:
        """End a storm: restore the pair's configured loss (idempotent)."""
        pair = self.pair(a, b)
        saved = self._degraded.pop(pair, None)
        if saved is None:
            return
        self.env.metrics.event("restore-tier", pair="-".join(pair))
        for link, loss in zip(self._links[pair], saved):
            link.configure(loss=loss)

    def degrade_tiers_at(self, a: str, b: str, after_s: float,
                         duration_s: float, loss: float):
        """Schedule one degradation storm; returns the driving process."""
        pair = self.pair(a, b)
        if after_s < 0 or duration_s <= 0:
            raise ValueError("after_s must be >= 0 and duration_s > 0")
        if not 0.0 < loss < 1.0:
            raise ValueError(f"storm loss must be in (0, 1), got {loss}")

        def _storm():
            yield self.env.timeout(after_s)
            self.degrade_tiers(*pair, loss=loss)
            yield self.env.timeout(duration_s)
            self.clear_degradation(*pair)

        return self.env.process(
            _storm(), name=f"chaos-degrade-tier-{pair[0]}-{pair[1]}"
        )

    def __repr__(self) -> str:
        return f"<ContinuumTopology {self.spec.describe()}>"
