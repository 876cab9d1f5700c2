"""CPU model: turns calibrated work amounts into simulated time.

Work is specified in *reference seconds* (time the operation takes on the
A8-M3, see :mod:`repro.calibration`) in up to three components:

``compute_s``
    busy CPU, interpreter-bound; scales with ``compute_speedup``;
``io_busy_s``
    busy CPU in syscall paths; scales with ``io_speedup`` (with floor);
``io_wait_s``
    blocked-but-idle time (kernel waits, blocking socket calls); the
    process is delayed but no core is held busy.

Busy time is accounted per *tag* so the harness can attribute utilization
to "capture" vs "workload" exactly like the paper's Fig. 6a does.

One kernel event only where someone waits (the rule of
:mod:`repro.simkernel.resources`): a charge on a free core gets an
already-granted ``request()`` and costs just its busy timeout; only a
caller that finds every core busy waits for a grant event.
:meth:`Cpu.run_async` charges are timers
(:meth:`~repro.simkernel.Environment.call_later`), not processes.  Every
grant, busy-core change and completion falls at the same simulated time
as with one event per grant and one process per async charge; within an
instant, an async charge takes a free core at the call, ahead of a
request its caller makes before yielding.  An interrupted charge is
accounted for the time it held its core, so an interrupt in the instant
a core is taken charges nothing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generator

from ..simkernel import Environment, Resource, TimeWeighted
from .specs import DeviceSpec

__all__ = ["Cpu"]


class Cpu:
    """A multi-core CPU shared by the processes running on one device."""

    def __init__(self, env: Environment, spec: DeviceSpec):
        self.env = env
        self.spec = spec
        self._cores = Resource(env, capacity=spec.cores)
        #: number of busy cores over time (for utilization and energy)
        self.busy_cores = TimeWeighted(env, 0)
        self._busy_time_by_tag: Dict[str, float] = defaultdict(float)
        self._started = env.now

    # -- execution ---------------------------------------------------------
    def run(
        self,
        compute_s: float = 0.0,
        io_busy_s: float = 0.0,
        io_wait_s: float = 0.0,
        tag: str = "workload",
    ) -> Generator:
        """Generator performing the given work; use as ``yield from``.

        Busy components hold one core for their (scaled) duration; the wait
        component delays the caller without occupying a core.
        """
        spec = self.spec
        env = self.env
        busy = self._busy_s(compute_s, io_busy_s)
        if busy > 0:
            with self._cores.request() as req:
                # a granted request needs no yield, and one here would
                # resume every frame of the caller's ``yield from`` chain
                if req.callbacks is not None:
                    yield req
                self.busy_cores.add(1)
                start = env.now
                try:
                    yield env.timeout(busy)
                except BaseException:
                    busy = env.now - start  # cut short: charge the time held
                    raise
                finally:
                    self.busy_cores.add(-1)
                    self._busy_time_by_tag[tag] += busy
        if io_wait_s:
            wait = spec.scale_io(io_wait_s)
            if wait > 0:
                yield env.timeout(wait)

    def run_async(
        self,
        compute_s: float = 0.0,
        io_busy_s: float = 0.0,
        tag: str = "background",
    ) -> None:
        """Charge busy work off the caller's path (fire and forget).

        Models work done by a background thread (e.g. ProvLight's async
        sender): it holds a core and shows up in utilization, but does
        not delay the caller.  On a free core the charge starts now; on
        a busy one it starts when its queued request is granted.
        """
        busy = self._busy_s(compute_s, io_busy_s)
        if busy <= 0:
            return
        req = self._cores.request()
        if req.callbacks is None:  # granted on a free core
            self._start_async(req, busy, tag)
        else:
            req.callbacks.append(lambda granted: self._start_async(granted, busy, tag))

    def _busy_s(self, compute_s: float, io_busy_s: float) -> float:
        """Scaled seconds a charge holds one core."""
        busy = 0.0
        if compute_s:
            busy = self.spec.scale_compute(compute_s)
        if io_busy_s:
            busy += self.spec.scale_io(io_busy_s)
        return busy

    def _start_async(self, req, busy: float, tag: str) -> None:
        self.busy_cores.add(1)
        self.env.call_later(busy, self._finish_async, req, busy, tag)

    def _finish_async(self, req, busy: float, tag: str) -> None:
        self.busy_cores.add(-1)
        self._busy_time_by_tag[tag] += busy
        req.cancel()

    # -- accounting ---------------------------------------------------------
    def busy_time(self, tag: str | None = None) -> float:
        """Accumulated busy seconds, for one tag or all tags."""
        if tag is not None:
            return self._busy_time_by_tag.get(tag, 0.0)
        return sum(self._busy_time_by_tag.values())

    def busy_tags(self) -> Dict[str, float]:
        """Snapshot of per-tag busy seconds."""
        return dict(self._busy_time_by_tag)

    def utilization(self, tag: str | None = None) -> float:
        """Mean core utilization in [0, 1] since creation (or reset).

        With a tag, the utilization attributable to that tag only —
        matching the paper's "CPU usage of the capture library".
        """
        elapsed = self.env.now - self._started
        if elapsed <= 0:
            return 0.0
        if tag is None:
            return self.busy_cores.integral() / (elapsed * self.spec.cores)
        return self._busy_time_by_tag.get(tag, 0.0) / (elapsed * self.spec.cores)

    def reset_accounting(self) -> None:
        """Restart utilization accounting from the current instant."""
        self._busy_time_by_tag.clear()
        self.busy_cores.reset()
        self._started = self.env.now

    def __repr__(self) -> str:
        return f"<Cpu {self.spec.name} cores={self.spec.cores}>"
