"""Reproduction drivers for the paper's evaluation tables.

Each ``tableN()`` measures the experiment grid of the corresponding
paper table and renders a paper-vs-measured comparison.  Its *shape
checks*, the qualitative claims the table supports, are the table's
:mod:`~repro.harness.relations` evaluated over the whole grid: each
compares a cell with its siblings, the cells that differ from it in one
knob.  Every table derives its grid from a ``base``
:class:`ExperimentSetup` (default: ``ExperimentSetup()``), replacing
only the fields the table varies.
Repetition counts default to the paper's 10 but can be reduced for quick
runs (the benchmark suite uses ``REPRO_REPETITIONS``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..device import XEON_GOLD_5220
from ..metrics import fmt_bytes, fmt_ci_pct, fmt_pct, relative_overhead, render_table
from ..workloads import SyntheticWorkloadConfig
from . import paper_reference as paper
from .experiments import ExperimentSetup, OverheadResult, measure_overhead, run_null_baseline
from .relations import Cell, evaluate

__all__ = [
    "TableResult",
    "default_repetitions",
    "table2",
    "table3",
    "table4",
    "table7",
    "table8",
    "table9",
    "table10",
    "ALL_TABLES",
]


def default_repetitions(fallback: int = 10) -> int:
    """Repetition count; ``REPRO_REPETITIONS`` overrides the default
    (values below 1 clamp to 1)."""
    raw = os.environ.get("REPRO_REPETITIONS")  # lint: disable=environ-read(how many runs a table makes, not what a run is)
    try:
        return max(1, int(raw)) if raw else fallback
    except ValueError as exc:
        raise ValueError(f"REPRO_REPETITIONS={raw!r}: {exc}") from None


@dataclass
class TableResult:
    """One reproduced table/figure: rendered text plus shape checks."""

    name: str
    title: str
    text: str
    rows: List[Dict[str, Any]]
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failed_checks(self) -> List[str]:
        return [desc for desc, passed in self.checks if not passed]

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED: " + "; ".join(self.failed_checks())
        return f"{self.name}: {len(self.checks)} checks {status}"


def _config(attrs: int, duration: float) -> SyntheticWorkloadConfig:
    return SyntheticWorkloadConfig(attributes_per_task=attrs, task_duration_s=duration)


def _table(name: str, short: str, title: str, heading: str, reps: int,
           reference: Dict[Any, Dict[Any, float]], names: Tuple[str, ...],
           label: str, cell: Callable[..., Cell], note: Optional[str] = None,
           column: str = "duration", columns: Tuple[Any, ...] = paper.DURATIONS,
           unit: str = "s") -> TableResult:
    """Measure and render a paper table's grid, then check its relations:
    a line per ``reference`` key (its parts named by ``names``), a cell per
    ``column`` value, whose setup and config ``cell(**parts, column=value)``
    gives."""
    rows: List[Dict[str, Any]] = []
    rendered = []
    cells: Dict[Cell, OverheadResult] = {}
    for key, per_column in reference.items():
        parts = dict(zip(names, key if isinstance(key, tuple) else (key,)))
        line = [label.format(**parts)]
        for value in columns:
            setup, config = cell(**parts, **{column: value})
            result = cells[setup, config] = measure_overhead(setup, config, repetitions=reps)
            ci, expected = result.ci, per_column[value]
            rows.append({**parts, column: value, "overhead": ci.mean,
                         "ci": ci.halfwidth, "paper": expected})
            line.append(f"{fmt_ci_pct(ci.mean, ci.halfwidth)} (paper {fmt_pct(expected)})")
        rendered.append(line)
    text = render_table(title, [heading, *[f"{c}{unit}" for c in columns]],
                        rendered, note=note)
    return TableResult(name, short, text, rows, evaluate(cells, table=name))


def table2(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table II: ProvLake/DfAnalyzer capture overhead on IoT/Edge."""
    reps = default_repetitions() if repetitions is None else repetitions
    return _table(
        "table2", "Table II", "Table II - baseline capture overhead on IoT/Edge "
        f"(mean of {reps} runs +-95% CI)", "system", reps,
        paper.TABLE2, ("system", "attrs"), "{system} @{attrs} attrs",
        lambda system, attrs, duration: (replace(base, system=system),
                                         _config(attrs, duration)),
        note="paper: ProvLake 56.9%..6.02%, DfAnalyzer 39.8%..4.26%; all >3%",
    )


def _grouping_table(name: str, title: str, system: str, reference: Dict[Any, Dict[Any, float]],
                    repetitions: Optional[int], base: ExperimentSetup) -> TableResult:
    reps = default_repetitions() if repetitions is None else repetitions
    title = f"{title} grouping & bandwidth (100 attrs, {reps} runs)"
    return _table(
        name, title, title, "condition", reps,
        reference, ("bandwidth", "group"), "{bandwidth} group={group}",
        lambda bandwidth, group, duration: (
            replace(base, system=system, bandwidth=bandwidth, group_size=group),
            _config(100, duration)),
        columns=(0.5, 1.0),
    )


def table3(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table III: ProvLake grouping/bandwidth impact."""
    return _grouping_table("table3", "Table III - ProvLake", "provlake", paper.TABLE3,
                           repetitions, base)


def table4(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table IV: why PROV-IO and Komadu were left out of the performance
    analysis.  Each system's capture model (:mod:`repro.baselines.excluded`)
    runs on an A8-M3, and the design limits the paper cites are checked as
    relations over the runs' means.  Nothing is read from ``base``."""
    from ..baselines.excluded import ExcludedSetup, run_excluded

    reps = default_repetitions() if repetitions is None else repetitions
    config = SyntheticWorkloadConfig(number_of_tasks=20, attributes_per_task=100,
                                     task_duration_s=0.1)
    cells: Dict[tuple, Dict[str, float]] = {}
    rows: List[Dict[str, Any]] = []
    rendered = []
    for system, dump_every in (("prov-io", 5), ("prov-io", 1000), ("komadu", 50)):
        setup = ExcludedSetup(system, dump_every)
        runs = []
        for seed in range(1, reps + 1):
            run = run_excluded(setup, config, seed)
            run["overhead"] = relative_overhead(
                run["elapsed_s"], run_null_baseline(config, seed))
            runs.append(run)
        mean = cells[setup, config] = {name: float(np.mean([run[name] for run in runs]))
                                       for name in runs[0]}
        rows.append({"system": system, "dump_every_records": dump_every, **mean})
        rendered.append([setup.describe(), fmt_pct(mean["overhead"]),
                         fmt_pct(mean["cpu_utilization"]), fmt_bytes(mean["tx_bytes"]),
                         fmt_bytes(mean["resident_bytes"]), f"{mean['dumps']:.0f}"])
    text = render_table(
        f"Table IV - systems excluded from the performance analysis "
        f"(20 tasks, 100 attrs, 0.1s, {reps} runs)",
        ["system", "overhead", "edge CPU", "sent", "graph in RAM", "dumps"], rendered,
        note="\n".join(f"paper: {system} {why}" for system, why in paper.TABLE4.items()))
    return TableResult("table4", "Table IV", text, rows, evaluate(cells, table="table4"))


def table7(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table VII: ProvLight capture overhead on IoT/Edge."""
    reps = default_repetitions() if repetitions is None else repetitions
    return _table(
        "table7", "Table VII",
        f"Table VII - ProvLight capture overhead on IoT/Edge ({reps} runs)", "system",
        reps, paper.TABLE7, ("attrs",), "provlight @{attrs} attrs",
        lambda attrs, duration: (replace(base, system="provlight"),
                                 _config(attrs, duration)),
        note="paper: 1.45%..0.23% (10 attrs), 1.54%..0.29% (100 attrs); all <3%",
    )


def table8(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table VIII: ProvLight grouping/bandwidth impact."""
    return _grouping_table("table8", "Table VIII - ProvLight", "provlight", paper.TABLE8,
                           repetitions, base)


def table9(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table IX: ProvLight scalability over 8..64 devices.

    The heaviest experiment (64 simulated devices); default repetitions
    are reduced to 3 unless overridden.
    """
    reps = default_repetitions(3) if repetitions is None else repetitions
    return _table(
        "table9", "Table IX",
        f"Table IX - ProvLight scalability (0.5s tasks, 100 attrs, {reps} runs)",
        "system", reps, {"provlight": paper.TABLE9}, (), "provlight",
        lambda devices: (replace(base, system="provlight", n_devices=devices),
                         _config(100, 0.5)),
        note="paper: 1.54%, 1.54%, 1.56%, 1.57% - flat",
        column="devices", columns=tuple(sorted(paper.TABLE9)), unit=" devices",
    )


def table10(repetitions: Optional[int] = None,
            base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table X: capture overhead on cloud servers."""
    reps = default_repetitions() if repetitions is None else repetitions
    return _table(
        "table10", "Table X",
        f"Table X - capture overhead in cloud servers (100 attrs, {reps} runs)",
        "system", reps, paper.TABLE10, ("system",), "{system}",
        lambda system, duration: (
            replace(base, system=system, device_spec=XEON_GOLD_5220,
                    delay="0.05ms", bandwidth="1Gbit"),
            _config(100, duration)),
        note="paper: all <3%; ProvLight 7x/5x faster than ProvLake/DfAnalyzer",
    )


ALL_TABLES: Dict[str, Callable[..., TableResult]] = {
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "table10": table10,
}
