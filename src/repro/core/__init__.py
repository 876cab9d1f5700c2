"""ProvLight: the paper's core contribution.

User-facing capture model (``Workflow``/``Task``/``Data`` per PROV-DM),
binary serialization with compression, optional grouping of ended-task
records, and the server side (broker + a sharded pool of provenance
translators with pluggable backends).  Capture clients are built with
:func:`repro.capture.create_client`.
"""

from .grouping import GroupBuffer
from .model import (
    Data,
    Task,
    Workflow,
    count_attribute_values,
    count_attributes,
    count_attributes_from_record,
)
from .provdm import ProvDocument, ProvError, document_from_records
from .resilience import (
    BackendError,
    BackendTimeout,
    CircuitBreaker,
    RetryPolicy,
    RetryableBackendError,
)
from .security import AuthenticationError, PayloadCipher, derive_key
from .serialization import (
    CodecError,
    decode_payload,
    decode_value,
    encode_payload,
    encode_value,
)
from .server import (
    DEFAULT_TRANSLATOR_WORKERS,
    CallableBackend,
    HttpBackend,
    ProvLightServer,
    ServerConfig,
    TranslatorPool,
)
from .translator import (
    TranslationError,
    Translator,
    records_from_payload,
    to_dfanalyzer,
    to_prov_json,
    to_provlake,
)

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
    "to_provlake",
    "encode_value",
    "decode_value",
    "encode_payload",
    "decode_payload",
    "CodecError",
    "PayloadCipher",
    "AuthenticationError",
    "derive_key",
]
