"""Point-to-point unidirectional link with bandwidth, latency and loss.

The timing model is classic store-and-forward:

* *serialization*: a packet of ``size`` bytes occupies the transmitter for
  ``size * 8 / bandwidth_bps`` seconds; packets queue FIFO behind it
  (this queue is what makes the 25 Kbit/s experiments interesting);
* *propagation*: after serialization the packet travels for
  ``latency_s (+ jitter)`` seconds; propagation is pipelined, so multiple
  packets can be in flight;
* *loss*: each packet is dropped independently with probability
  ``loss`` after serialization (the transmitter still paid the time).

Beyond uniform loss, the link models the two failure shapes edge
uplinks actually exhibit:

* *burst loss* (Gilbert-Elliott): a two-state Markov chain advanced per
  packet — in the *good* state packets see the uniform ``loss``; in the
  *bad* state they are dropped with ``burst_loss``.  Transitions happen
  with ``p_enter_burst`` / ``p_exit_burst``, so mean burst length is
  ``1 / p_exit_burst`` packets.
* *partition*: :meth:`partition` takes the link down entirely — every
  packet reaching the head of the queue is dropped until :meth:`heal`.
  Fault injectors flap this to exercise reconnect/replay machinery.

Parameters may be changed at runtime (the E2Clab network manager does
this to emulate ``tc netem`` reconfiguration); queued packets pick up the
new values when they reach the head of the queue.

The model runs on :meth:`~repro.simkernel.Environment.call_later`
timers, not processes: a FIFO ``deque`` plus one "in serialization"
slot.  A send to an idle link starts the serialization timer at once;
when it fires, the link records ``tx_bytes``, samples
partition/loss/burst state and jitter from the shared RNG, arms one
propagation timer that delivers the packet, and starts serializing the
next queued packet.  That is two kernel events per packet and no
:class:`~repro.simkernel.Process`.  Every timer fires at the instant
the matching timeout of a pump process would; only its insertion id
moves earlier, which reorders events only when they share the identical
float fire time.  So a reconfiguration in the very instant a
serialization ends applies to the next packet only if it runs before
the serialization timer fires.  ``tests/net/test_link_equivalence.py``
checks deliveries, counters and shared-RNG draws against the
process-based model.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

import numpy as np

from ..simkernel import Environment
from .packet import Packet

__all__ = ["Link"]

DeliverFn = Callable[[Packet], None]


class Link:
    """One direction of a connection between two hosts."""

    def __init__(
        self,
        env: Environment,
        src: str,
        dst: str,
        bandwidth_bps: float,
        latency_s: float,
        jitter_s: float = 0.0,
        loss: float = 0.0,
        burst_loss: float = 0.0,
        p_enter_burst: float = 0.0,
        p_exit_burst: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be > 0")
        if latency_s < 0:
            raise ValueError("latency must be >= 0")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if not 0.0 <= burst_loss <= 1.0:
            raise ValueError("burst_loss must be in [0, 1]")
        if not 0.0 <= p_enter_burst <= 1.0:
            raise ValueError("p_enter_burst must be in [0, 1]")
        if not 0.0 < p_exit_burst <= 1.0:
            raise ValueError("p_exit_burst must be in (0, 1]")
        self.env = env
        self.src = src
        self.dst = dst
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.jitter_s = float(jitter_s)
        self.loss = float(loss)
        self.burst_loss = float(burst_loss)
        self.p_enter_burst = float(p_enter_burst)
        self.p_exit_burst = float(p_exit_burst)
        #: Gilbert-Elliott state: True while in the lossy burst state
        self._in_burst = False
        #: administratively up; False drops everything (partition)
        self.up = True
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._queue: Deque[Tuple[Packet, DeliverFn]] = deque()
        #: the packet occupying the transmitter, or None while idle
        self._serializing: Optional[Tuple[Packet, DeliverFn]] = None
        self.tx_bytes = env.metrics.counter("link", "tx_bytes", src=src, dst=dst)
        self.dropped = env.metrics.counter("link", "dropped", src=src, dst=dst)

    # -- configuration (netem-style) ----------------------------------------
    def configure(
        self,
        bandwidth_bps: Optional[float] = None,
        latency_s: Optional[float] = None,
        jitter_s: Optional[float] = None,
        loss: Optional[float] = None,
        burst_loss: Optional[float] = None,
        p_enter_burst: Optional[float] = None,
        p_exit_burst: Optional[float] = None,
    ) -> None:
        """Change link parameters at runtime.

        A packet already serializing keeps the bandwidth it started with:
        a packet reaching an idle transmitter starts serializing at the
        ``send`` call, so a reconfiguration in that same instant applies
        only to the packets behind it.  Queued packets pick up the new
        bandwidth when they reach the head of the queue.
        """
        if bandwidth_bps is not None:
            if bandwidth_bps <= 0:
                raise ValueError("bandwidth must be > 0")
            self.bandwidth_bps = float(bandwidth_bps)
        if latency_s is not None:
            if latency_s < 0:
                raise ValueError("latency must be >= 0")
            self.latency_s = float(latency_s)
        if jitter_s is not None:
            self.jitter_s = float(jitter_s)
        if loss is not None:
            if not 0.0 <= loss < 1.0:
                raise ValueError("loss must be in [0, 1)")
            self.loss = float(loss)
        if burst_loss is not None:
            if not 0.0 <= burst_loss <= 1.0:
                raise ValueError("burst_loss must be in [0, 1]")
            self.burst_loss = float(burst_loss)
        if p_enter_burst is not None:
            if not 0.0 <= p_enter_burst <= 1.0:
                raise ValueError("p_enter_burst must be in [0, 1]")
            self.p_enter_burst = float(p_enter_burst)
        if p_exit_burst is not None:
            if not 0.0 < p_exit_burst <= 1.0:
                raise ValueError("p_exit_burst must be in (0, 1]")
            self.p_exit_burst = float(p_exit_burst)

    # -- partition (administrative up/down) ---------------------------------
    def partition(self) -> None:
        """Take the link down: drop every packet until :meth:`heal`.

        Packets already propagating keep flying (they left the wire before
        the cut); packets in or behind serialization are dropped.
        """
        self.up = False

    def heal(self) -> None:
        """Bring a partitioned link back up."""
        self.up = True

    # -- transmission -----------------------------------------------------------
    def send(self, packet: Packet, deliver: DeliverFn) -> None:
        """Enqueue ``packet``; call ``deliver(packet)`` at the far end."""
        if self._serializing is None:
            self._serialize((packet, deliver))
        else:
            self._queue.append((packet, deliver))

    def _serialize(self, entry: Tuple[Packet, DeliverFn]) -> None:
        """Occupy the transmitter with ``entry`` for its serialization time."""
        self._serializing = entry
        delay = entry[0].size * 8.0 / self.bandwidth_bps
        self.env.call_later(delay, self._serialized)

    def _serialized(self) -> None:
        packet, deliver = self._serializing
        self.tx_bytes.record(packet.size)
        if not self.up or self._drop(packet):
            self.dropped.record(packet.size)
        else:
            delay = self.latency_s
            if self.jitter_s > 0.0:
                delay = max(0.0, delay + float(self.rng.normal(0.0, self.jitter_s)))
            self.env.call_later(delay, deliver, packet)
        if self._queue:
            self._serialize(self._queue.popleft())
        else:
            self._serializing = None

    def _drop(self, packet: Packet) -> bool:
        """Sample the loss model for one packet (advances burst state)."""
        if self.p_enter_burst > 0.0 or self._in_burst:
            # Gilbert-Elliott: transition first, then sample the state's
            # loss rate, so a burst's first packet already sees burst_loss
            if self._in_burst:
                if self.rng.random() < self.p_exit_burst:
                    self._in_burst = False
            elif self.rng.random() < self.p_enter_burst:
                self._in_burst = True
            rate = self.burst_loss if self._in_burst else self.loss
        else:
            rate = self.loss
        return rate > 0.0 and self.rng.random() < rate

    def __repr__(self) -> str:
        state = "" if self.up else " DOWN"
        return (
            f"<Link {self.src}->{self.dst} {self.bandwidth_bps:.0f}bps "
            f"{self.latency_s * 1000:.1f}ms loss={self.loss}{state}>"
        )
