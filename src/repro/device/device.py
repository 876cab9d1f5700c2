"""Device: the composition of CPU, memory, radio and energy models.

A :class:`Device` is what workloads and capture libraries run *on*.  The
network layer attaches a host endpoint to it (see
:class:`repro.net.topology.Network.add_host`), wiring packet send/receive
events into the radio and energy accounting.
"""

from __future__ import annotations

from typing import Optional

from ..simkernel import Environment
from .cpu import Cpu
from .energy import EnergyMeter
from .memory import Memory
from .radio import Radio
from .specs import A8M3, DeviceSpec

__all__ = ["Device"]


class Device:
    """A simulated machine with accounted resources."""

    def __init__(
        self,
        env: Environment,
        spec: DeviceSpec = A8M3,
        name: Optional[str] = None,
        strict_memory: bool = False,
    ):
        self.env = env
        self.spec = spec
        self.name = name or spec.name
        self.cpu = Cpu(env, spec)
        self.memory = Memory(spec, strict=strict_memory)
        self.energy: Optional[EnergyMeter] = (
            EnergyMeter(env, spec.energy, self.cpu) if spec.energy else None
        )
        self.radio = Radio(env, self.energy, device=self.name)
        #: set by the network layer when this device joins a topology
        self.host = None

    # -- convenience ------------------------------------------------------
    def run(self, compute_s=0.0, io_busy_s=0.0, io_wait_s=0.0, tag="workload"):
        """Shortcut for ``device.cpu.run(...)`` (yield from it)."""
        return self.cpu.run(compute_s, io_busy_s, io_wait_s, tag=tag)

    def blocking_network_wait(self, request):
        """Generator: run the generator ``request`` (a blocking network
        exchange) while the radio listens for the response.

        Used by blocking clients (HTTP): the energy model charges RX-listen
        power for the whole wait — the mechanism behind the baselines'
        power overhead in paper Fig. 6d.
        """
        if self.energy is not None:
            self.energy.rx_listen_start()
        try:
            value = yield from request
        finally:
            if self.energy is not None:
                self.energy.rx_listen_stop()
        return value

    def reset_accounting(self) -> None:
        """Reset CPU/energy/radio accounting (memory ledger persists)."""
        self.cpu.reset_accounting()
        self.radio.reset()
        if self.energy is not None:
            self.energy.reset()

    def __repr__(self) -> str:
        return f"<Device {self.name} ({self.spec.name})>"
