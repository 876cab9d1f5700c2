"""DfAnalyzer-style provenance backend: columnar storage, runtime
ingestion and a query engine including the
paper's FL analysis queries.

The paper uses only DfAnalyzer's storage/query components (its capture
side is a baseline); the E2Clab Provenance Manager wires ProvLight's
translator output into this service.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "DfAnalyzerService": ".ingestion",
    "IngestError": ".ingestion",
    "lineage_of": ".queries",
    "latest_epoch_metrics": ".queries",
    "task_durations": ".queries",
    "top_k_by_metric": ".queries",
    "Query": ".query",
    "QueryError": ".query",
    "ColumnStore": ".store",
    "StoreError": ".store",
    "Table": ".store",
}

__all__ = [
    "ColumnStore",
    "Table",
    "StoreError",
    "Query",
    "QueryError",
    "DfAnalyzerService",
    "IngestError",
    "top_k_by_metric",
    "latest_epoch_metrics",
    "task_durations",
    "lineage_of",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
