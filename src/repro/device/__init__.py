"""Device models: CPU, memory, radio and energy accounting.

The paper evaluates on two device classes — A8-M3 IoT boards and Xeon
cloud servers — whose specs live in :mod:`repro.device.specs`.  Work is
charged in calibrated reference-seconds (see :mod:`repro.calibration`).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Cpu": ".cpu",
    "Device": ".device",
    "EnergyMeter": ".energy",
    "Memory": ".memory",
    "MemoryExceeded": ".memory",
    "Radio": ".radio",
    "A8M3": ".specs",
    "XEON_GOLD_5220": ".specs",
    "DeviceSpec": ".specs",
    "spec_by_name": ".specs",
}

__all__ = [
    "Cpu",
    "Device",
    "EnergyMeter",
    "Memory",
    "MemoryExceeded",
    "Radio",
    "DeviceSpec",
    "A8M3",
    "XEON_GOLD_5220",
    "spec_by_name",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
