"""``repro.capture`` — the unified capture API (single public surface).

The paper's capture library, factored so that one declarative
:class:`CaptureConfig` selects transport x grouping x QoS x cipher and
one :class:`CaptureClient` façade owns the client-side critical path for
every transport::

    from repro.capture import CaptureConfig, create_client

    client = create_client(device, server.endpoint, "provlight/edge/data",
                           CaptureConfig(transport="mqttsn", group_size=10))
    yield from client.setup()
    ...             # Workflow/Task/Data instrument against this client
    client.close()

Built-in transports: ``mqttsn`` (the paper's asynchronous MQTT-SN QoS 2
client), ``coap`` (confirmable CoAP POST) and ``http`` (the baselines'
blocking HTTP/1.1 POST).  Adding one is three steps — subclass
:class:`CaptureTransport`, write a factory, call
:func:`register_transport` — see ``docs/capture-api.md``.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CaptureClient": ".client",
    "CaptureClosedError": ".client",
    "CaptureSenderError": ".client",
    "create_client": ".client",
    "DEFAULT_TRANSPORT": ".config",
    "CaptureConfig": ".config",
    "ReplayDeduper": ".envelope",
    "unwrap_payload": ".envelope",
    "wrap_payload": ".envelope",
    "CaptureJournal": ".journal",
    "EcdsaRecordSigner": ".journal",
    "HmacRecordSigner": ".journal",
    "JournalError": ".journal",
    "TamperError": ".journal",
    "create_transport": ".registry",
    "get_transport_factory": ".registry",
    "normalize_transport": ".registry",
    "register_transport": ".registry",
    "transport_names": ".registry",
    "unregister_transport": ".registry",
    "deploy_capture_sink": ".sinks",
    "CaptureTransport": ".transport",
}

__all__ = [
    "CaptureClient",
    "CaptureClosedError",
    "CaptureConfig",
    "CaptureJournal",
    "CaptureSenderError",
    "CaptureTransport",
    "DEFAULT_TRANSPORT",
    "EcdsaRecordSigner",
    "HmacRecordSigner",
    "JournalError",
    "ReplayDeduper",
    "TamperError",
    "create_client",
    "create_transport",
    "deploy_capture_sink",
    "get_transport_factory",
    "normalize_transport",
    "register_transport",
    "transport_names",
    "unregister_transport",
    "unwrap_payload",
    "wrap_payload",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
