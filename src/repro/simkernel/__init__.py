"""Discrete-event simulation kernel.

A compact, dependency-free DES engine in the generator-coroutine style:
:class:`Environment` drives :class:`Process` generators that yield
:class:`Event` objects, and calls :meth:`Environment.call_later` timers,
bare heap entries with no event behind them, straight off its heap.

The rest of the surface is what the simulator uses: the tail-position
check :meth:`Environment.zero_delay_is_next`, processes with interrupts,
valueless :class:`AllOf`/:class:`AnyOf`, one FIFO :class:`Resource` and
one FIFO hand-off, the :class:`Mailbox` (a buffer and one waiter, taken
by an event or a one-shot callback).  Every other ``repro`` subsystem
runs on this kernel, in one environment sharing one simulated clock.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "EmptySchedule": ".core",
    "Environment": ".core",
    "StopSimulation": ".core",
    "default_environment_class": ".core",
    "set_default_environment_class": ".core",
    "DebugEnvironment": ".debug",
    "SimHazard": ".debug",
    "SimHazardError": ".debug",
    "debug_environment_installed": ".debug",
    "install_debug_environment": ".debug",
    "uninstall_debug_environment": ".debug",
    "AllOf": ".events",
    "AnyOf": ".events",
    "Condition": ".events",
    "Event": ".events",
    "Initialize": ".events",
    "Interrupt": ".events",
    "Process": ".events",
    "Timeout": ".events",
    "Counter": ".monitor",
    "Metrics": ".monitor",
    "TimeWeighted": ".monitor",
    "Mailbox": ".resources",
    "Resource": ".resources",
}

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "set_default_environment_class",
    "default_environment_class",
    "DebugEnvironment",
    "SimHazard",
    "SimHazardError",
    "install_debug_environment",
    "uninstall_debug_environment",
    "debug_environment_installed",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Initialize",
    "Condition",
    "AllOf",
    "AnyOf",
    "Resource",
    "Mailbox",
    "TimeWeighted",
    "Counter",
    "Metrics",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
