"""Reproduction of *ProvLight: Efficient Workflow Provenance Capture on
the Edge-to-Cloud Continuum* (IEEE CLUSTER 2023).

Public API shortcuts re-export the capture model and the main entry
points; see the subpackages for the full surface:

* :mod:`repro.capture` — the unified capture API (``CaptureConfig`` +
  transport registry + ``CaptureClient`` façade over MQTT-SN, CoAP and
  blocking HTTP);
* :mod:`repro.core` — ProvLight itself (the paper's contribution);
* :mod:`repro.baselines` — ProvLake/DfAnalyzer-style capture baselines;
* :mod:`repro.dfanalyzer` — storage/query backend;
* :mod:`repro.e2clab` — experiment framework with the Provenance Manager;
* :mod:`repro.harness` — drivers for every paper table and figure;
* :mod:`repro.simkernel`, :mod:`repro.net`, :mod:`repro.mqttsn`,
  :mod:`repro.http`, :mod:`repro.device` — the simulated substrate.

Subpackages and their modules load on first use: importing a package
imports none of its submodules, and the first read of an exported name
imports the module that defines it (see :mod:`repro._lazy`).  A run thus
compiles only the modules it runs.
"""

from ._lazy import lazy_exports

_EXPORTS = {
    "CaptureClient": ".capture",
    "CaptureConfig": ".capture",
    "create_client": ".capture",
    "Data": ".core",
    "ProvLightServer": ".core",
    "Task": ".core",
    "Workflow": ".core",
    "A8M3": ".device",
    "XEON_GOLD_5220": ".device",
    "Device": ".device",
    "Network": ".net",
    "Environment": ".simkernel",
}

__version__ = "1.0.0"

__all__ = [
    "Workflow",
    "Task",
    "Data",
    "CaptureClient",
    "CaptureConfig",
    "create_client",
    "ProvLightServer",
    "Device",
    "A8M3",
    "XEON_GOLD_5220",
    "Network",
    "Environment",
    "__version__",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
