"""Baseline capture systems the paper compares ProvLight against.

ProvLake- and DfAnalyzer-style capture libraries: verbose JSON over
blocking HTTP/1.1 on TCP, with grouping support for ProvLake only.  Both
implement the same capture-client interface as
:class:`repro.capture.CaptureClient`, so any instrumented workload can run
against any system.  :class:`NullCaptureClient` is the no-capture control
used as the denominator of every overhead number.  The two libraries
POST to the HTTP capture sink, whose ingest front decodes their bodies
with :func:`decode_json_records`.
"""

from .common import (
    BlockingHttpCaptureClient,
    NullCaptureClient,
    decode_json_records,
    iso_time,
)
from .dfanalyzer_capture import DfAnalyzerCaptureClient
from .provlake import ProvLakeClient

__all__ = [
    "BlockingHttpCaptureClient",
    "NullCaptureClient",
    "ProvLakeClient",
    "DfAnalyzerCaptureClient",
    "decode_json_records",
    "iso_time",
]
