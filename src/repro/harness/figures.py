"""Reproduction drivers for the paper's Fig. 6 (a-d).

All four panels share the same experimental condition — 0.5 s tasks,
100 attributes per task, 1 Gbit + 23 ms — and report resource overheads
of capture on the edge device: CPU utilization, memory, network usage
and power.  :func:`figure6_runs` executes the condition once per system
and the four panel functions read different metrics from those runs;
each panel's checks are its relations over those cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..metrics import fmt_pct, render_table
from ..workloads import SyntheticWorkloadConfig
from . import paper_reference as paper
from .experiments import SYSTEMS, ExperimentSetup, OverheadResult, measure_overhead
from .relations import evaluate
from .tables import TableResult, default_repetitions

__all__ = [
    "figure6_runs",
    "fig6a_cpu",
    "fig6b_memory",
    "fig6c_network",
    "fig6d_power",
    "ALL_FIGURES",
]

_CONFIG = SyntheticWorkloadConfig(attributes_per_task=100, task_duration_s=0.5)


def figure6_runs(
    repetitions: Optional[int] = None,
    attribute_kind: str = "int",
    base: ExperimentSetup = ExperimentSetup(),
) -> Dict[str, OverheadResult]:
    """Run the Fig. 6 condition of ``base`` for all three systems."""
    reps = default_repetitions(5) if repetitions is None else repetitions
    config = _CONFIG.with_(attribute_kind=attribute_kind)
    return {
        system: measure_overhead(
            replace(base, system=system), config, repetitions=reps
        )
        for system in SYSTEMS
    }


def _factor_rows(
    values: Dict[str, float], paper_values: Dict[str, float],
    paper_factors: Dict[str, float], unit_fmt, variant: str = "",
) -> Tuple[List[List[str]], List[Dict]]:
    rendered, rows = [], []
    base = values["provlight"]
    for system in SYSTEMS:
        value = values[system]
        factor = value / base if base else float("nan")
        paper_v = paper_values.get(system)
        rows.append({"system": f"{system}-{variant}" if variant else system, "value": value,
                     "factor_vs_provlight": factor, "paper": paper_v})
        rendered.append([
            f"{system} ({variant} attrs)" if variant else system,
            unit_fmt(value),
            f"{factor:.1f}x" if system != "provlight" else "1x (reference)",
            unit_fmt(paper_v) if paper_v is not None else "-",
            f"{paper_factors[system]:.1f}x" if system in paper_factors else "-",
        ])
    return rendered, rows


_HEADERS = ["system", "measured", "vs provlight", "paper value", "paper factor"]


def _values(runs: Dict[str, OverheadResult], metric: str) -> Dict[str, float]:
    return {s: runs[s].mean_metric(lambda m: getattr(m, metric)) for s in SYSTEMS}


def _checks(panel: str, *runs: Dict[str, OverheadResult]) -> List[Tuple[str, bool]]:
    """The panel's relations over the cells of ``runs``."""
    return evaluate({(r.setup, r.config): r for by_system in runs
                     for r in by_system.values()}, table=panel)


def fig6a_cpu(runs: Optional[Dict[str, OverheadResult]] = None,
              repetitions: Optional[int] = None,
              base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Fig. 6a: capture CPU utilization (5x/7x claims)."""
    runs = runs or figure6_runs(repetitions, base=base)
    rendered, rows = _factor_rows(
        _values(runs, "capture_cpu_utilization"), paper.FIG6["cpu_utilization"],
        paper.FIG6["cpu_factor_vs_provlight"], fmt_pct,
    )
    text = render_table("Fig. 6a - CPU overhead of capture", _HEADERS, rendered,
                        note="paper: ProvLight 1.7-2%; 7x/5x less than ProvLake/DfAnalyzer")
    return TableResult("fig6a", "Fig. 6a CPU", text, rows, _checks("fig6a", runs))


def fig6b_memory(runs: Optional[Dict[str, OverheadResult]] = None,
                 repetitions: Optional[int] = None,
                 base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Fig. 6b: capture memory as a fraction of device RAM (~2x claim)."""
    runs = runs or figure6_runs(repetitions, base=base)
    rendered, rows = _factor_rows(
        _values(runs, "capture_memory_fraction"), paper.FIG6["memory_fraction"],
        paper.FIG6["memory_factor_vs_provlight"], fmt_pct,
    )
    text = render_table("Fig. 6b - memory overhead of capture", _HEADERS, rendered,
                        note="paper: ProvLight <4%; ~2x less than the baselines")
    return TableResult("fig6b", "Fig. 6b memory", text, rows, _checks("fig6b", runs))


def fig6c_network(runs: Optional[Dict[str, OverheadResult]] = None,
                  repetitions: Optional[int] = None,
                  base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Fig. 6c: network usage during capture (~2x-fewer-data claim).

    Measured twice: with the paper's constant-integer attributes
    (Listing 1), where zlib is at its best and ProvLight's advantage is
    *larger* than the paper's 2x, and with random-float attributes (the
    FL metrics case), which matches the paper's ~2x.
    """
    runs = runs or figure6_runs(repetitions, base=base)
    float_runs = figure6_runs(2, attribute_kind="float", base=base)
    rendered, rows = _factor_rows(
        _values(runs, "network_kb_per_s"), paper.FIG6["network_kb_per_s"],
        paper.FIG6["network_factor_vs_provlight"], "{:.2f} KB/s".format)
    float_rendered, float_rows = _factor_rows(
        _values(float_runs, "network_kb_per_s"), {}, {}, "{:.2f} KB/s".format, "float")
    text = render_table(
        "Fig. 6c - network usage during capture", _HEADERS, rendered + float_rendered,
        note=(
            "paper: ProvLight ~3.7KB/s, ~1.9x/1.8x fewer data. With Listing-1 "
            "integer attributes compression is near-ideal, so the measured "
            "factor exceeds the paper's; float attributes reproduce ~2x."
        ),
    )
    return TableResult("fig6c", "Fig. 6c network", text, rows + float_rows,
                       _checks("fig6c", runs, float_runs))


def fig6d_power(runs: Optional[Dict[str, OverheadResult]] = None,
                repetitions: Optional[int] = None,
                base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Fig. 6d: power consumption overhead (2.1x/2.6x claims)."""
    runs = runs or figure6_runs(repetitions, base=base)
    base_w = base.device_spec.energy.base_w
    values_w = _values(runs, "average_power_w")
    overheads = {s: values_w[s] / base_w - 1.0 for s in SYSTEMS}
    rendered, rows = _factor_rows(
        overheads, paper.FIG6["power_overhead"],
        paper.FIG6["power_factor_vs_provlight"], fmt_pct,
    )
    for row, system in zip(rendered, SYSTEMS):
        row[1] += f" ({values_w[system]:.3f}W)"
    text = render_table(
        "Fig. 6d - power consumption overhead", _HEADERS, rendered,
        note=(
            "paper: 2.58%/5.46%/6.82% at 1.43/1.47/1.49W. The paper's "
            "DfAnalyzer>ProvLake inversion (despite less CPU+network) is "
            "within max-power measurement noise; our model yields them near-tied."
        ),
    )
    return TableResult("fig6d", "Fig. 6d power", text, rows, _checks("fig6d", runs))


ALL_FIGURES = {
    "fig6a": fig6a_cpu,
    "fig6b": fig6b_memory,
    "fig6c": fig6c_network,
    "fig6d": fig6d_power,
}
