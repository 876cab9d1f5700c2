"""Evaluation harness: reproduces every table and figure of the paper's
evaluation section, prints paper-vs-measured comparisons and validates
shape checks: the paper's claims as relations over sibling runs, which
:func:`repro.harness.relations.evaluate` checks over a table's grid or,
given a ``measure``, over one drawn run (the per-spec entry point)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_REPETITIONS": ".experiments",
    "SYSTEMS": ".experiments",
    "ExperimentSetup": ".experiments",
    "OverheadResult": ".experiments",
    "RunOutcome": ".experiments",
    "measure_overhead": ".experiments",
    "run_capture_experiment": ".experiments",
    "run_null_baseline": ".experiments",
    "ALL_FIGURES": ".figures",
    "fig6a_cpu": ".figures",
    "fig6b_memory": ".figures",
    "fig6c_network": ".figures",
    "fig6d_power": ".figures",
    "figure6_runs": ".figures",
    "ALL_TARGETS": ".runner",
    "main": ".runner",
    "run_targets": ".runner",
    "ALL_TABLES": ".tables",
    "TableResult": ".tables",
    "default_repetitions": ".tables",
    "table2": ".tables",
    "table3": ".tables",
    "table4": ".tables",
    "table7": ".tables",
    "table8": ".tables",
    "table9": ".tables",
    "table10": ".tables",
}

__all__ = [
    "SYSTEMS",
    "DEFAULT_REPETITIONS",
    "ExperimentSetup",
    "OverheadResult",
    "RunOutcome",
    "measure_overhead",
    "run_capture_experiment",
    "run_null_baseline",
    "TableResult",
    "default_repetitions",
    "table2",
    "table3",
    "table4",
    "table7",
    "table8",
    "table9",
    "table10",
    "fig6a_cpu",
    "fig6b_memory",
    "fig6c_network",
    "fig6d_power",
    "figure6_runs",
    "ALL_TABLES",
    "ALL_FIGURES",
    "ALL_TARGETS",
    "run_targets",
    "main",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
