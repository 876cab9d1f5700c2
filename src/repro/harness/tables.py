"""Reproduction drivers for the paper's evaluation tables.

Each ``tableN()`` runs the experiment grid of the corresponding paper
table, renders a paper-vs-measured comparison and evaluates *shape
checks* — the qualitative claims the table supports.  Every table
derives its grid from a ``base`` :class:`ExperimentSetup` (default:
``ExperimentSetup()``), replacing only the fields the table varies.
Repetition counts default to the paper's 10 but can be reduced for quick
runs (the benchmark suite uses ``REPRO_REPETITIONS``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..device import XEON_GOLD_5220
from ..metrics import fmt_ci_pct, fmt_pct, render_table
from ..workloads import SyntheticWorkloadConfig
from . import paper_reference as paper
from .experiments import ExperimentSetup, measure_overhead

__all__ = [
    "TableResult",
    "default_repetitions",
    "table2",
    "table3",
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
    return SyntheticWorkloadConfig(
        attributes_per_task=attrs, task_duration_s=duration
    )


def _cell(rows: List[Dict[str, Any]], setup: ExperimentSetup,
          config: SyntheticWorkloadConfig, reps: int, reference: float,
          **key: Any) -> str:
    """Measure one overhead cell: append its row (``key``, the measured
    mean and CI half-width, the paper's value) and return its text."""
    ci = measure_overhead(setup, config, repetitions=reps, keep_outcomes=False).ci
    rows.append({**key, "overhead": ci.mean, "ci": ci.halfwidth, "paper": reference})
    return f"{fmt_ci_pct(ci.mean, ci.halfwidth)} (paper {fmt_pct(reference)})"


def table2(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table II: ProvLake/DfAnalyzer capture overhead on IoT/Edge."""
    reps = default_repetitions() if repetitions is None else repetitions
    rows: List[Dict[str, Any]] = []
    rendered = []
    for (system, attrs), per_duration in paper.TABLE2.items():
        cells = [f"{system} @{attrs} attrs"]
        for duration in paper.DURATIONS:
            cells.append(_cell(
                rows, replace(base, system=system), _config(attrs, duration),
                reps, per_duration[duration],
                system=system, attrs=attrs, duration=duration,
            ))
        rendered.append(cells)

    checks = []
    for row in rows:
        checks.append(
            (
                f"{row['system']}@{row['attrs']}/{row['duration']}s is high overhead (>3%)",
                row["overhead"] > paper.LOW_OVERHEAD_THRESHOLD,
            )
        )
        checks.append(
            (
                f"{row['system']}@{row['attrs']}/{row['duration']}s within 35% of paper",
                abs(row["overhead"] - row["paper"]) / row["paper"] < 0.35,
            )
        )
    by_key = {(r["system"], r["attrs"], r["duration"]): r["overhead"] for r in rows}
    for attrs in (10, 100):
        for duration in paper.DURATIONS:
            checks.append(
                (
                    f"provlake slower than dfanalyzer @{attrs}/{duration}s",
                    by_key[("provlake", attrs, duration)]
                    > by_key[("dfanalyzer", attrs, duration)],
                )
            )

    text = render_table(
        "Table II - baseline capture overhead on IoT/Edge "
        f"(mean of {reps} runs +-95% CI)",
        ["system", *[f"{d}s" for d in paper.DURATIONS]],
        rendered,
        note="paper: ProvLake 56.9%..6.02%, DfAnalyzer 39.8%..4.26%; all >3%",
    )
    return TableResult("table2", "Table II", text, rows, checks)


def _grouping_table(
    name: str,
    title: str,
    base: ExperimentSetup,
    reference: Dict[Tuple[str, int], Dict[float, float]],
    reps: int,
    extra_checks: Callable[[Dict], List[Tuple[str, bool]]],
) -> TableResult:
    durations = (0.5, 1.0)
    rows: List[Dict[str, Any]] = []
    rendered = []
    for (bandwidth, group), per_duration in reference.items():
        cells = [f"{bandwidth} group={group}"]
        for duration in durations:
            cells.append(_cell(
                rows, replace(base, bandwidth=bandwidth, group_size=group),
                _config(100, duration), reps, per_duration[duration],
                bandwidth=bandwidth, group=group, duration=duration,
            ))
        rendered.append(cells)

    by_key = {(r["bandwidth"], r["group"], r["duration"]): r["overhead"] for r in rows}
    checks = extra_checks(by_key)
    text = render_table(
        title, ["condition", *[f"{d}s" for d in durations]], rendered
    )
    return TableResult(name, title, text, rows, checks)


def table3(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table III: ProvLake grouping/bandwidth impact."""
    reps = default_repetitions() if repetitions is None else repetitions

    def checks(by_key) -> List[Tuple[str, bool]]:
        out = []
        for duration in (0.5, 1.0):
            out.append(
                (
                    f"1Gbit: grouping 50 reaches low overhead at {duration}s",
                    by_key[("1Gbit", 50, duration)] < paper.LOW_OVERHEAD_THRESHOLD,
                )
            )
            out.append(
                (
                    f"1Gbit: grouping monotonically helps at {duration}s",
                    by_key[("1Gbit", 0, duration)]
                    > by_key[("1Gbit", 10, duration)]
                    > by_key[("1Gbit", 50, duration)],
                )
            )
            out.append(
                (
                    f"25Kbit: overhead stays high (>43%) for all groups at {duration}s",
                    all(by_key[("25Kbit", g, duration)] > 0.43 for g in paper.GROUPS),
                )
            )
            ungrouped_factor = by_key[("25Kbit", 0, duration)] / by_key[("1Gbit", 0, duration)]
            out.append(
                (
                    f"25Kbit ungrouped is several times worse than 1Gbit at {duration}s",
                    ungrouped_factor > 3.0,
                )
            )
        return out

    return _grouping_table(
        "table3",
        f"Table III - ProvLake grouping & bandwidth (100 attrs, {reps} runs)",
        replace(base, system="provlake"),
        paper.TABLE3,
        reps,
        checks,
    )


def table7(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table VII: ProvLight capture overhead on IoT/Edge."""
    reps = default_repetitions() if repetitions is None else repetitions
    rows: List[Dict[str, Any]] = []
    rendered = []
    for attrs, per_duration in paper.TABLE7.items():
        cells = [f"provlight @{attrs} attrs"]
        for duration in paper.DURATIONS:
            cells.append(_cell(
                rows, replace(base, system="provlight"), _config(attrs, duration),
                reps, per_duration[duration], attrs=attrs, duration=duration,
            ))
        rendered.append(cells)

    checks: List[Tuple[str, bool]] = []
    for row in rows:
        checks.append(
            (
                f"provlight@{row['attrs']}/{row['duration']}s is low overhead (<3%)",
                row["overhead"] < paper.LOW_OVERHEAD_THRESHOLD,
            )
        )
    # the headline claim: 26x/37x faster than the baselines at 0.5s tasks
    pl2 = paper.TABLE2  # reuse paper's baselines for factor references
    by_attr = {(r["attrs"], r["duration"]): r["overhead"] for r in rows}
    for attrs in (10, 100):
        for duration in paper.DURATIONS:
            checks.append(
                (
                    f"sub-0.5% overhead for long tasks @{attrs}/{duration}s"
                    if duration >= 3.5
                    else f"overhead under 2% @{attrs}/{duration}s",
                    by_attr[(attrs, duration)] < (0.005 if duration >= 3.5 else 0.02),
                )
            )
    text = render_table(
        f"Table VII - ProvLight capture overhead on IoT/Edge ({reps} runs)",
        ["system", *[f"{d}s" for d in paper.DURATIONS]],
        rendered,
        note="paper: 1.45%..0.23% (10 attrs), 1.54%..0.29% (100 attrs); all <3%",
    )
    return TableResult("table7", "Table VII", text, rows, checks)


def table8(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table VIII: ProvLight grouping/bandwidth impact."""
    reps = default_repetitions() if repetitions is None else repetitions

    def checks(by_key) -> List[Tuple[str, bool]]:
        out = []
        for duration in (0.5, 1.0):
            for g in paper.GROUPS:
                out.append(
                    (
                        f"low overhead (<2%) at 25Kbit group={g} {duration}s",
                        by_key[("25Kbit", g, duration)] < 0.02,
                    )
                )
            for g in paper.GROUPS:
                fast = by_key[("1Gbit", g, duration)]
                slow = by_key[("25Kbit", g, duration)]
                out.append(
                    (
                        f"bandwidth-insensitive at group={g} {duration}s",
                        abs(slow - fast) / fast < 0.15,
                    )
                )
            out.append(
                (
                    f"grouping still helps a little at {duration}s",
                    by_key[("1Gbit", 50, duration)] <= by_key[("1Gbit", 0, duration)],
                )
            )
        return out

    return _grouping_table(
        "table8",
        f"Table VIII - ProvLight grouping & bandwidth (100 attrs, {reps} runs)",
        replace(base, system="provlight"),
        paper.TABLE8,
        reps,
        checks,
    )


def table9(repetitions: Optional[int] = None,
           base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table IX: ProvLight scalability over 8..64 devices.

    The heaviest experiment (64 simulated devices); default repetitions
    are reduced to 3 unless overridden.
    """
    reps = default_repetitions(3) if repetitions is None else repetitions
    config = _config(100, 0.5)
    rows: List[Dict[str, Any]] = []
    cells = ["provlight"]
    for n_devices in sorted(paper.TABLE9):
        cells.append(_cell(
            rows, replace(base, system="provlight", n_devices=n_devices),
            config, reps, paper.TABLE9[n_devices], devices=n_devices,
        ))

    overheads = {r["devices"]: r["overhead"] for r in rows}
    checks = [
        (
            f"low overhead (<3%) at {n} devices",
            overheads[n] < paper.LOW_OVERHEAD_THRESHOLD,
        )
        for n in sorted(overheads)
    ]
    checks.append(
        (
            "scaling 8->64 devices changes overhead by <20% relative",
            abs(overheads[64] - overheads[8]) / overheads[8] < 0.20,
        )
    )
    text = render_table(
        f"Table IX - ProvLight scalability (0.5s tasks, 100 attrs, {reps} runs)",
        ["system", *[f"{n} devices" for n in sorted(paper.TABLE9)]],
        [cells],
        note="paper: 1.54%, 1.54%, 1.56%, 1.57% - flat",
    )
    return TableResult("table9", "Table IX", text, rows, checks)


def table10(repetitions: Optional[int] = None,
            base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Table X: capture overhead on cloud servers."""
    reps = default_repetitions() if repetitions is None else repetitions
    rows: List[Dict[str, Any]] = []
    rendered = []
    for system, per_duration in paper.TABLE10.items():
        cells = [system]
        for duration in paper.DURATIONS:
            cells.append(_cell(
                rows, replace(base, system=system, device_spec=XEON_GOLD_5220,
                              delay="0.05ms", bandwidth="1Gbit"),
                _config(100, duration), reps, per_duration[duration],
                system=system, duration=duration,
            ))
        rendered.append(cells)

    by_key = {(r["system"], r["duration"]): r["overhead"] for r in rows}
    checks: List[Tuple[str, bool]] = []
    for row in rows:
        checks.append(
            (
                f"{row['system']}@{row['duration']}s low overhead (<3%) in cloud",
                row["overhead"] < paper.LOW_OVERHEAD_THRESHOLD,
            )
        )
    for duration in paper.DURATIONS:
        checks.append(
            (
                f"provlight fastest in cloud at {duration}s",
                by_key[("provlight", duration)] < by_key[("dfanalyzer", duration)]
                < by_key[("provlake", duration)],
            )
        )
    factor = by_key[("provlake", 0.5)] / by_key[("provlight", 0.5)]
    checks.append(("provlight roughly 7x faster than provlake (3x..20x)", 3.0 < factor < 20.0))
    factor = by_key[("dfanalyzer", 0.5)] / by_key[("provlight", 0.5)]
    checks.append(("provlight roughly 5x faster than dfanalyzer (2.5x..15x)", 2.5 < factor < 15.0))

    text = render_table(
        f"Table X - capture overhead in cloud servers (100 attrs, {reps} runs)",
        ["system", *[f"{d}s" for d in paper.DURATIONS]],
        rendered,
        note="paper: all <3%; ProvLight 7x/5x faster than ProvLake/DfAnalyzer",
    )
    return TableResult("table10", "Table X", text, rows, checks)


ALL_TABLES: Dict[str, Callable[..., TableResult]] = {
    "table2": table2,
    "table3": table3,
    "table7": table7,
    "table8": table8,
    "table9": table9,
    "table10": table10,
}
