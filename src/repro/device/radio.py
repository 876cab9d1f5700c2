"""Radio / NIC accounting for a device.

The radio does not shape traffic (links in :mod:`repro.net` own the timing
model); it is the bridge between the network layer and the device's energy
meter and byte counters.  The paper's Fig. 6c "network usage" is read from
these counters.
"""

from __future__ import annotations

from typing import Optional

from ..simkernel import Environment
from .energy import EnergyMeter

__all__ = ["Radio"]


class Radio:
    """Per-device transmit/receive accounting."""

    def __init__(self, env: Environment, energy: Optional[EnergyMeter] = None,
                 *, device: str):
        self.env = env
        self.energy = energy
        self.tx = env.metrics.counter("radio", "tx", device=device)
        self.rx = env.metrics.counter("radio", "rx", device=device)

    def on_transmit(self, nbytes: int) -> None:
        """Called by the network layer when this device sends a packet."""
        self.tx.record(nbytes)
        if self.energy is not None:
            self.energy.on_transmit(nbytes)

    def on_receive(self, nbytes: int) -> None:
        """Called by the network layer when this device receives a packet."""
        self.rx.record(nbytes)
        if self.energy is not None:
            # RX energy is duty-based: a receipt only opens a wake window
            self.energy.touch_wake_window()

    @property
    def total_bytes(self) -> int:
        """Bytes moved in both directions."""
        return int(self.tx.total + self.rx.total)

    def reset(self) -> None:
        self.tx.reset()
        self.rx.reset()

    def __repr__(self) -> str:
        return f"<Radio tx={self.tx.total:.0f}B rx={self.rx.total:.0f}B>"
