"""Evaluation harness: reproduces every table and figure of the paper's
evaluation section, prints paper-vs-measured comparisons and validates
shape checks: the paper's claims as relations over sibling runs, which
:func:`repro.harness.relations.evaluate` checks over a table's grid or,
given a ``measure``, over one drawn run (the per-spec entry point)."""

from .experiments import (
    DEFAULT_REPETITIONS,
    SYSTEMS,
    ExperimentSetup,
    OverheadResult,
    RunOutcome,
    measure_overhead,
    run_capture_experiment,
    run_null_baseline,
)
from .figures import ALL_FIGURES, fig6a_cpu, fig6b_memory, fig6c_network, fig6d_power, figure6_runs
from .runner import ALL_TARGETS, main, run_targets
from .tables import (
    ALL_TABLES,
    TableResult,
    default_repetitions,
    table2,
    table3,
    table7,
    table8,
    table9,
    table10,
)

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
