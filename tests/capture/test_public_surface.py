"""Public-surface pins for the packages around the capture API, and the
import-order guarantee of the transport registry.

``create_client(CaptureConfig)`` is the single way to build a capture
client, so none of these surfaces names a per-transport client
constructor or transport adapter.  Surface changes are fine but must be deliberate (update these lists
*and* the docs).
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.baselines
import repro.coap
import repro.core
import repro.simkernel

EXPECTED_ALL = {
    "repro": [
        "A8M3",
        "CaptureClient",
        "CaptureConfig",
        "Data",
        "Device",
        "Environment",
        "Network",
        "ProvLightServer",
        "Task",
        "Workflow",
        "XEON_GOLD_5220",
        "__version__",
        "create_client",
    ],
    "repro.core": [
        "AuthenticationError",
        "BackendError",
        "BackendTimeout",
        "CallableBackend",
        "CircuitBreaker",
        "CodecError",
        "DEFAULT_TRANSLATOR_WORKERS",
        "Data",
        "GroupBuffer",
        "HttpBackend",
        "PayloadCipher",
        "ProvDocument",
        "ProvError",
        "ProvLightServer",
        "RetryPolicy",
        "RetryableBackendError",
        "ServerConfig",
        "Task",
        "TranslationError",
        "Translator",
        "TranslatorPool",
        "Workflow",
        "count_attribute_values",
        "count_attributes",
        "count_attributes_from_record",
        "decode_payload",
        "decode_value",
        "derive_key",
        "document_from_records",
        "encode_payload",
        "encode_value",
        "records_from_payload",
        "to_dfanalyzer",
        "to_prov_json",
    ],
    "repro.coap": [
        "CODE_BAD_REQUEST",
        "CODE_CHANGED",
        "CODE_CREATED",
        "CODE_EMPTY",
        "CODE_NOT_FOUND",
        "CODE_POST",
        "CODE_SERVICE_UNAVAILABLE",
        "CoapClient",
        "CoapError",
        "CoapMessage",
        "CoapServer",
        "CoapServerError",
        "CoapTimeout",
        "DEFAULT_COAP_PORT",
        "ProvLightCoapServer",
        "TYPE_ACK",
        "TYPE_CON",
        "TYPE_NON",
        "TYPE_RST",
        "code_str",
    ],
    "repro.baselines": [
        "BlockingHttpCaptureClient",
        "DfAnalyzerCaptureClient",
        "NullCaptureClient",
        "ProvLakeClient",
        "decode_json_records",
        "iso_time",
    ],
    "repro.simkernel": [
        "AllOf",
        "AnyOf",
        "Condition",
        "Counter",
        "DebugEnvironment",
        "EmptySchedule",
        "Environment",
        "Event",
        "Initialize",
        "Interrupt",
        "Mailbox",
        "Metrics",
        "Process",
        "Resource",
        "SimHazard",
        "SimHazardError",
        "StopSimulation",
        "TimeWeighted",
        "Timeout",
        "debug_environment_installed",
        "default_environment_class",
        "install_debug_environment",
        "set_default_environment_class",
        "uninstall_debug_environment",
    ],
}

MODULES = {
    "repro": repro,
    "repro.core": repro.core,
    "repro.coap": repro.coap,
    "repro.baselines": repro.baselines,
    "repro.simkernel": repro.simkernel,
}


@pytest.mark.parametrize("name", sorted(EXPECTED_ALL))
def test_public_surface_is_pinned(name):
    module = MODULES[name]
    assert sorted(module.__all__) == sorted(EXPECTED_ALL[name])
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.__all__ names missing {symbol}"


#: every package that exports lazily (``repro._lazy``): reading a name
#: imports its submodule, so a name whose submodule is missing or does
#: not define it fails only here, or at its first use
LAZY_PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.capture",
    "repro.coap",
    "repro.core",
    "repro.device",
    "repro.dfanalyzer",
    "repro.harness",
    "repro.http",
    "repro.metrics",
    "repro.mqttsn",
    "repro.net",
    "repro.simkernel",
    "repro.workloads",
]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_lazy_export_resolves(name):
    module = importlib.import_module(name)
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.__all__ names missing {symbol}"


SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.mark.parametrize("first", LAZY_PACKAGES)
def test_star_import_of_every_package_whichever_loads_first(first):
    """``from pkg import *`` reads every name of ``__all__``; run it for
    every package in a fresh interpreter that imports ``first`` before
    the rest, so an import-order cycle between submodules fails here."""
    code = "".join(
        f"from {name} import *\n"
        for name in [first] + [p for p in LAZY_PACKAGES if p != first]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first", [
    "repro.capture",
    "repro.core",
    "repro.mqttsn.transport",
    "repro.coap",
    "repro.baselines",
    "repro.e2clab",
])
def test_every_builtin_transport_registers_whichever_package_loads_first(first):
    """``repro.capture`` and the protocol packages import each other; the
    registry must still see all three built-ins, and no import may fail,
    whichever of them a fresh interpreter loads first."""
    code = (
        f"import {first}\n"
        "from repro.capture import transport_names\n"
        "print(','.join(transport_names()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    )
    assert tuple(out.stdout.strip().split(",")) == ("coap", "http", "mqttsn")
