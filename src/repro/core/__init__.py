"""ProvLight: the paper's core contribution.

User-facing capture model (``Workflow``/``Task``/``Data`` per PROV-DM),
binary serialization with compression, optional grouping of ended-task
records, and the server side (broker + a sharded pool of provenance
translators with pluggable backends).  Capture clients are built with
:func:`repro.capture.create_client`.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "GroupBuffer": ".grouping",
    "Data": ".model",
    "Task": ".model",
    "Workflow": ".model",
    "count_attribute_values": ".model",
    "count_attributes": ".model",
    "count_attributes_from_record": ".model",
    "ProvDocument": ".provdm",
    "ProvError": ".provdm",
    "document_from_records": ".provdm",
    "BackendError": ".resilience",
    "BackendTimeout": ".resilience",
    "CircuitBreaker": ".resilience",
    "RetryPolicy": ".resilience",
    "RetryableBackendError": ".resilience",
    "AuthenticationError": ".security",
    "PayloadCipher": ".security",
    "derive_key": ".security",
    "CodecError": ".serialization",
    "decode_payload": ".serialization",
    "decode_value": ".serialization",
    "encode_payload": ".serialization",
    "encode_value": ".serialization",
    "DEFAULT_TRANSLATOR_WORKERS": ".server",
    "CallableBackend": ".server",
    "HttpBackend": ".server",
    "ProvLightServer": ".server",
    "ServerConfig": ".server",
    "TranslatorPool": ".server",
    "TranslationError": ".translator",
    "Translator": ".translator",
    "records_from_payload": ".translator",
    "to_dfanalyzer": ".translator",
    "to_prov_json": ".translator",
}

__all__ = [
    "Workflow",
    "Task",
    "Data",
    "count_attributes",
    "count_attribute_values",
    "count_attributes_from_record",
    "ProvLightServer",
    "ServerConfig",
    "TranslatorPool",
    "DEFAULT_TRANSLATOR_WORKERS",
    "CallableBackend",
    "HttpBackend",
    "BackendError",
    "RetryableBackendError",
    "BackendTimeout",
    "RetryPolicy",
    "CircuitBreaker",
    "GroupBuffer",
    "ProvDocument",
    "ProvError",
    "document_from_records",
    "Translator",
    "TranslationError",
    "records_from_payload",
    "to_dfanalyzer",
    "to_prov_json",
    "encode_value",
    "decode_value",
    "encode_payload",
    "decode_payload",
    "CodecError",
    "PayloadCipher",
    "AuthenticationError",
    "derive_key",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
