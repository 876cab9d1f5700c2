"""Provenance data translator: ProvLight wire records -> DfAnalyzer.

The ProvLight server runs one translator per topic (paper Fig. 5).  The
translator decodes the (possibly grouped, compressed) payload and emits
the DfAnalyzer data model, the one backend every capture sink feeds.
:func:`to_prov_json` maps the same records to a W3C PROV-JSON document.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, Iterable, List, Optional

from ..capture.envelope import ReplayDeduper, unwrap_payload
from .serialization import decode_payload

__all__ = [
    "IngestFront",
    "TranslationError",
    "Translator",
    "records_from_payload",
    "to_dfanalyzer",
    "to_prov_json",
]


class TranslationError(ValueError):
    """Payload could not be translated."""


def records_from_payload(payload: bytes, cipher=None) -> List[Dict[str, Any]]:
    """Decode a wire payload into a list of records.

    A payload is either one record (dict) or a group (list of dicts),
    optionally wrapped in a durable-capture dedup envelope (stripped
    transparently here; *deduplication* is the :class:`IngestFront`'s,
    the decode path must just never choke on an enveloped payload).  The
    decoder only ever produces plain dicts/lists, so exact type checks
    suffice on this per-message path.
    """
    envelope = unwrap_payload(payload)
    if envelope is not None:
        payload = envelope[2]
    value = decode_payload(payload, cipher=cipher)
    if type(value) is dict:
        return [value]
    if type(value) is list and all(type(r) is dict for r in value):
        return value
    raise TranslationError(f"unexpected payload structure: {type(value).__name__}")


def to_dfanalyzer(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Translate to the DfAnalyzer ingestion schema.

    DfAnalyzer models dataflows / transformations / tasks / datasets; the
    mapping is: workflow -> dataflow tag, transformation_id ->
    transformation tag, data items -> datasets with attribute elements.
    """
    out = []
    for record in records:
        kind = record.get("kind")
        if kind in ("workflow_begin", "workflow_end"):
            out.append(
                {
                    "type": "dataflow",
                    "dataflow_tag": str(record["workflow_id"]),
                    "event": "begin" if kind == "workflow_begin" else "end",
                    "time": record.get("time"),
                }
            )
            continue
        if kind not in ("task_begin", "task_end"):
            raise TranslationError(f"unknown record kind {kind!r}")
        out.append(
            {
                "type": "task",
                "dataflow_tag": str(record["workflow_id"]),
                "transformation_tag": str(record.get("transformation_id")),
                "task_id": record["task_id"],
                "status": "RUNNING" if kind == "task_begin" else "FINISHED",
                "dependencies": list(record.get("dependencies", ())),
                "time": record.get("time"),
                "datasets": [
                    {
                        "tag": str(item["id"]),
                        "direction": "input" if kind == "task_begin" else "output",
                        "derivations": list(item.get("derivations", ())),
                        "elements": dict(item.get("attributes", {})),
                    }
                    for item in record.get("data", ())
                ],
            }
        )
    return out


def to_prov_json(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Translate to a PROV-JSON document (via the PROV-DM mapping)."""
    from .provdm import document_from_records

    return document_from_records(records).to_prov_json()


class Translator:
    """Decodes payloads and translates them to the DfAnalyzer data model."""

    def __init__(self, cipher=None):
        self.cipher = cipher

    def translate_payload(self, payload: bytes):
        """Decode a wire payload and translate it; returns
        ``(records, translated)``."""
        records = records_from_payload(payload, cipher=self.cipher)
        return records, to_dfanalyzer(records)


class IngestFront:
    """The ingest path every capture sink shares: unwrap -> dedup ->
    translate -> (the sink's CPU charge and backend call) -> mark -> count.

    It owns the sink's :class:`Translator`, :class:`ReplayDeduper`
    (persisted at ``state_path``) and counts, registered in ``metrics``,
    the owning sink's run registry (``env.metrics``).  A ``(client_id,
    seq)`` pair is marked only once the backend accepted its records, so
    a record whose ingest failed is ingested when it is replayed.

    ``decode`` replaces the translate step for a sink whose clients send
    another wire format (the baselines' JSON bodies): it maps a payload
    to ``(records, translated)`` and raises on a malformed one."""

    def __init__(self, cipher=None, state_path: Optional[str] = None, *, metrics,
                 decode: Optional[Callable[[bytes], tuple]] = None):
        self.translator = Translator(cipher=cipher)
        self.decode = decode
        self.deduper = ReplayDeduper(state_path=state_path)
        #: one count per payload, its records in the total
        self.ingested = metrics.counter("front", "ingested")
        self.duplicates = metrics.counter("front", "duplicates")
        self.malformed = metrics.counter("front", "malformed")
        self.failures = metrics.counter("front", "failures")

    def admit(self, payload: bytes, batch: Collection = ()):
        """``(key, records, translated)`` to ingest, or ``None`` for a
        duplicate or malformed payload (counted).  ``key`` is the
        envelope's ``(client_id, seq)``, peeked before any translate
        cost, or ``None`` for a bare payload; ``batch`` holds the keys
        the caller admitted and has not marked yet."""
        key = None
        try:
            envelope = unwrap_payload(payload)
            if envelope is not None:
                client_id, seq, payload = envelope
                key = (client_id, seq)
                if self.deduper.seen(client_id, seq) or key in batch:
                    self.duplicates.record()
                    return None
            decode = self.decode or self.translator.translate_payload
            records, translated = decode(payload)
        except Exception:  # untrusted wire bytes: any decode failure
            self.malformed.record()
            return None
        return key, records, translated

    def accepted(self, admitted: Iterable[tuple]) -> None:
        """The backend accepted these admissions: mark and count them.
        Call it in the step the backend returned in, so a crash cannot
        split the accept from the mark."""
        for key, records, _translated in admitted:
            if key is not None:
                self.deduper.mark(*key)
            self.ingested.record(len(records))
