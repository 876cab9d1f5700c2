"""Deterministic link-fault injection for robustness experiments.

Real edge uplinks flap: NB-IoT modems lose attach, LoRa gateways reboot,
Wi-Fi meshes repartition.  The durable-capture machinery
(:mod:`repro.capture.journal` + replay-on-reconnect) exists to survive
exactly these events, so the test harness needs to produce them on
demand and *deterministically* — the same seed must partition the same
link at the same simulated instant on every run.

:class:`LinkFaultInjector` wraps the two directed :class:`~.link.Link`
objects between a host pair and drives them together: partitions (hard
down), scheduled outages, flapping (periodic down/up cycles) and burst
loss (Gilbert-Elliott parameters).  All scheduling happens on the
simulation clock via ``env.process``; nothing here is random beyond the
links' own RNGs.
"""

from __future__ import annotations

from .link import Link
from .topology import Network

__all__ = ["LinkFaultInjector"]


class LinkFaultInjector:
    """Drive faults into the duplex link between two hosts.

    Immediate controls (:meth:`partition_now`, :meth:`heal_now`,
    :meth:`set_burst_loss`) act synchronously; the scheduled ones
    (:meth:`partition_at`, :meth:`flap`) register simulation processes and
    take effect as the clock advances.  Each cut is a ``partition-link``
    event and each heal a ``heal-link`` event in the run's event log.
    """

    def __init__(self, network: Network, a: str, b: str):
        self.env = network.env
        self.a = a
        self.b = b
        self._links: tuple[Link, Link] = (network.link(a, b), network.link(b, a))

    # -- state ---------------------------------------------------------------
    @property
    def partitioned(self) -> bool:
        return not all(link.up for link in self._links)

    # -- immediate controls ----------------------------------------------------
    def partition_now(self) -> None:
        """Cut both directions immediately."""
        if not self.partitioned:
            self.env.metrics.event("partition-link", a=self.a, b=self.b)
        for link in self._links:
            link.partition()

    def heal_now(self) -> None:
        """Restore both directions immediately."""
        if self.partitioned:
            self.env.metrics.event("heal-link", a=self.a, b=self.b)
        for link in self._links:
            link.heal()

    def set_burst_loss(
        self,
        burst_loss: float,
        p_enter_burst: float,
        p_exit_burst: float = 0.5,
    ) -> None:
        """Enable Gilbert-Elliott burst loss on both directions."""
        for link in self._links:
            link.configure(
                burst_loss=burst_loss,
                p_enter_burst=p_enter_burst,
                p_exit_burst=p_exit_burst,
            )

    def clear_burst_loss(self) -> None:
        """Disable burst loss (back to the links' uniform ``loss``)."""
        for link in self._links:
            link.configure(burst_loss=0.0, p_enter_burst=0.0)
            link._in_burst = False

    # -- scheduled faults ------------------------------------------------------
    def partition_at(self, after_s: float, duration_s: float):
        """Schedule one outage: down at ``now + after_s``, healed
        ``duration_s`` later.  Returns the driving process."""
        if after_s < 0 or duration_s <= 0:
            raise ValueError("after_s must be >= 0 and duration_s > 0")

        def _outage():
            yield self.env.timeout(after_s)
            self.partition_now()
            yield self.env.timeout(duration_s)
            self.heal_now()

        return self.env.process(
            _outage(), name=f"fault-partition-{self.a}<->{self.b}"
        )

    def flap(self, period_s: float, down_s: float, cycles: int):
        """Schedule ``cycles`` periodic outages: every ``period_s`` the
        link goes down for ``down_s``.  Returns the driving process."""
        if down_s <= 0 or period_s <= down_s:
            raise ValueError("need 0 < down_s < period_s")
        if cycles < 1:
            raise ValueError("cycles must be >= 1")

        def _flapper():
            for _ in range(cycles):
                yield self.env.timeout(period_s - down_s)
                self.partition_now()
                yield self.env.timeout(down_s)
                self.heal_now()

        return self.env.process(
            _flapper(), name=f"fault-flap-{self.a}<->{self.b}"
        )

    def __repr__(self) -> str:
        state = "DOWN" if self.partitioned else "up"
        return f"<LinkFaultInjector {self.a}<->{self.b} {state}>"
