"""Energy model: integrates device power over simulated time.

Power components (see :class:`repro.calibration.EnergyCoefficients`):

* base (idle board) power, always on;
* CPU power proportional to busy-core fraction (read from :class:`Cpu`);
* radio transmit energy per KB actually sent;
* radio receive/listen power while a process blocks on the network
  (baselines waiting for HTTP responses keep the radio in RX);
* a *wake window* after any radio activity: the SoC is kept out of its
  low-power state for a short period (race-to-sleep), merged across
  overlapping windows.

The meter answers the two questions of paper Fig. 6d: average power in
watts over a run, and the relative overhead versus a capture-free run.
"""

from __future__ import annotations

from typing import Optional

from ..simkernel import Environment, TimeWeighted
from ..calibration import EnergyCoefficients
from .cpu import Cpu

__all__ = ["EnergyMeter"]


class EnergyMeter:
    """Integrates the power model for one device."""

    def __init__(self, env: Environment, coeffs: EnergyCoefficients, cpu: Cpu):
        self.env = env
        self.coeffs = coeffs
        self.cpu = cpu
        self._started = env.now
        self._tx_joules = 0.0
        self._tx_bytes = 0
        self._rx_listeners = TimeWeighted(env, 0)
        # merged wake-window accounting
        self._wake_until = env.now
        self._awake_time = 0.0

    # -- hooks called by radio / protocol layers ---------------------------
    def on_transmit(self, nbytes: int) -> None:
        """Charge transmit energy for ``nbytes`` and open a wake window."""
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes}")
        self._tx_bytes += nbytes
        self._tx_joules += self.coeffs.tx_j_per_kb * (nbytes / 1024.0)
        self.touch_wake_window()

    def rx_listen_start(self) -> None:
        """The device starts actively listening for a network response."""
        self._rx_listeners.add(1)

    def rx_listen_stop(self) -> None:
        """The device stops listening."""
        self._rx_listeners.add(-1)

    def touch_wake_window(self) -> None:
        """Extend the awake window to ``now + wake_window_s``, merging."""
        now = self.env.now
        new_until = now + self.coeffs.wake_window_s
        if now >= self._wake_until:
            self._awake_time += self.coeffs.wake_window_s
        else:
            self._awake_time += max(0.0, new_until - self._wake_until)
        self._wake_until = max(self._wake_until, new_until)

    # -- readout ---------------------------------------------------------------
    def _awake_time_so_far(self) -> float:
        """Awake-window time elapsed by now (clips an open window)."""
        now = self.env.now
        if now >= self._wake_until:
            return self._awake_time
        return self._awake_time - (self._wake_until - now)

    def elapsed(self) -> float:
        return self.env.now - self._started

    def energy_joules(self) -> float:
        """Total energy consumed since creation (or reset)."""
        elapsed = self.elapsed()
        cpu_busy_core_seconds = self.cpu.busy_cores.integral()
        rx_seconds = self._rx_listeners.integral()
        return (
            self.coeffs.base_w * elapsed
            + self.coeffs.cpu_busy_w * cpu_busy_core_seconds
            + self._tx_joules
            + self.coeffs.rx_listen_w * rx_seconds
            + self.coeffs.wake_window_w * self._awake_time_so_far()
        )

    def average_power_w(self) -> float:
        """Mean power since creation; base power if no time has passed."""
        elapsed = self.elapsed()
        if elapsed <= 0:
            return self.coeffs.base_w
        return self.energy_joules() / elapsed

    @property
    def tx_bytes(self) -> int:
        return self._tx_bytes

    def reset(self) -> None:
        """Restart integration (CPU accounting must be reset separately)."""
        self._started = self.env.now
        self._tx_joules = 0.0
        self._tx_bytes = 0
        self._rx_listeners.reset()
        self._wake_until = self.env.now
        self._awake_time = 0.0

    def __repr__(self) -> str:
        return f"<EnergyMeter avg={self.average_power_w():.3f} W>"
