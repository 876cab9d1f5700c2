"""Transport registry: name -> factory, read by
:func:`~repro.capture.client.create_client`, the library's single public
way to build a capture client.

Built-in transports self-register when their module is imported; the
registry knows which module provides each built-in name and imports it
lazily, so ``create_client(..., CaptureConfig(transport="coap"))`` works
without the caller importing :mod:`repro.coap` first.  Third-party
transports call :func:`register_transport` (usable as a decorator) with
a factory ``(device, server, topic, config) -> CaptureTransport``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, Optional, Tuple

from .config import CaptureConfig
from .transport import CaptureTransport

__all__ = [
    "register_transport",
    "unregister_transport",
    "create_transport",
    "get_transport_factory",
    "transport_names",
    "normalize_transport",
]

#: factory(device, server, topic, config) -> CaptureTransport
TransportFactory = Callable[..., CaptureTransport]

_TRANSPORTS: Dict[str, TransportFactory] = {}

#: spelling variants accepted anywhere a transport name is taken
_ALIASES = {
    "mqtt-sn": "mqttsn",
    "mqtt_sn": "mqttsn",
    "http-blocking": "http",
    "provlake-http": "http",
}

#: (module, factory attribute) for each built-in transport.  The module
#: registers it on first import; the attribute lets ``_load_builtins``
#: restore an entry after ``unregister_transport`` even though the
#: module's import side effects cannot re-run.
_BUILTINS = {
    "mqttsn": ("repro.mqttsn.transport", "MqttSnCaptureTransport"),
    "coap": ("repro.coap.transport", "CoapCaptureTransport"),
    "http": ("repro.baselines.common", "HttpPostCaptureTransport"),
}


def normalize_transport(name: str) -> str:
    """Canonical registry name for ``name`` (resolves aliases)."""
    canonical = name.strip().lower()
    return _ALIASES.get(canonical, canonical)


def register_transport(name: str, factory: Optional[TransportFactory] = None,
                       replace: bool = False):
    """Register ``factory`` under ``name``; decorator form supported.

    ``factory(device, server, topic, config)`` must return a
    :class:`~repro.capture.CaptureTransport`.  Re-registering an
    existing name raises unless ``replace=True`` (a silent overwrite of
    e.g. ``"mqttsn"`` would be a hard-to-find bug).
    """
    canonical = normalize_transport(name)
    if not canonical:
        raise ValueError("transport name must be non-empty")

    def _register(factory: TransportFactory) -> TransportFactory:
        if canonical in _TRANSPORTS and not replace:
            raise ValueError(f"transport {canonical!r} is already registered")
        _TRANSPORTS[canonical] = factory
        return factory

    if factory is None:
        return _register
    return _register(factory)


def unregister_transport(name: str) -> None:
    """Remove a registered transport (primarily for tests)."""
    _TRANSPORTS.pop(normalize_transport(name), None)


def _load_builtins(name: Optional[str] = None) -> None:
    targets = [name] if name in _BUILTINS else list(_BUILTINS)
    for builtin in targets:
        if builtin not in _TRANSPORTS:
            module_name, attr = _BUILTINS[builtin]
            module = import_module(module_name)
            if builtin not in _TRANSPORTS:
                # already-imported module (register side effect cannot
                # re-run): restore the entry from its factory attribute
                _TRANSPORTS[builtin] = getattr(module, attr)


def get_transport_factory(name: str) -> TransportFactory:
    """The factory registered under ``name`` (loads built-ins lazily)."""
    canonical = normalize_transport(name)
    if canonical not in _TRANSPORTS:
        _load_builtins(canonical)
    try:
        return _TRANSPORTS[canonical]
    except KeyError:
        raise ValueError(
            f"unknown capture transport {name!r}; registered: "
            f"{', '.join(transport_names())}"
        ) from None


def transport_names() -> Tuple[str, ...]:
    """Sorted names of every registered transport (built-ins included)."""
    _load_builtins()
    return tuple(sorted(_TRANSPORTS))


def create_transport(device, server, topic: str,
                     config: Optional[CaptureConfig] = None) -> CaptureTransport:
    """Instantiate the transport selected by ``config.transport``."""
    config = config or CaptureConfig()
    factory = get_transport_factory(config.transport)
    return factory(device, server, topic, config)

