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

from .._lazy import lazy_exports

_EXPORTS = {
    "BlockingHttpCaptureClient": ".common",
    "NullCaptureClient": ".common",
    "decode_json_records": ".common",
    "iso_time": ".common",
    "DfAnalyzerCaptureClient": ".dfanalyzer_capture",
    "ProvLakeClient": ".provlake",
}

__all__ = [
    "BlockingHttpCaptureClient",
    "NullCaptureClient",
    "ProvLakeClient",
    "DfAnalyzerCaptureClient",
    "decode_json_records",
    "iso_time",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
