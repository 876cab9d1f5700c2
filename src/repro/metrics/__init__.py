"""Measurement: overhead statistics (mean ± 95% CI like the paper),
per-device metric snapshots and ASCII table rendering for the harness."""

from .._lazy import lazy_exports

_EXPORTS = {
    "RunMetrics": ".collectors",
    "snapshot_device": ".collectors",
    "fmt_bytes": ".reporting",
    "fmt_ci_pct": ".reporting",
    "fmt_pct": ".reporting",
    "fmt_si": ".reporting",
    "render_table": ".reporting",
    "MeanCI": ".stats",
    "mean_ci": ".stats",
    "relative_overhead": ".stats",
    "speedup": ".stats",
}

__all__ = [
    "MeanCI",
    "mean_ci",
    "relative_overhead",
    "speedup",
    "RunMetrics",
    "snapshot_device",
    "render_table",
    "fmt_pct",
    "fmt_ci_pct",
    "fmt_bytes",
    "fmt_si",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
