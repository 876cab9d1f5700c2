"""Reproduction drivers for the paper's Fig. 6 (a-d).

All four panels share the same experimental condition — 0.5 s tasks,
100 attributes per task, 1 Gbit + 23 ms — and report resource overheads
of capture on the edge device: CPU utilization, memory, network usage
and power.  :func:`figure6_runs` executes the condition once per system
and the four panel functions read different metrics from those runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..metrics import fmt_pct, render_table
from ..workloads import SyntheticWorkloadConfig
from . import paper_reference as paper
from .experiments import SYSTEMS, ExperimentSetup, OverheadResult, measure_overhead
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
    paper_factors: Dict[str, float], unit_fmt,
) -> Tuple[List[List[str]], List[Dict]]:
    rendered, rows = [], []
    base = values["provlight"]
    for system in SYSTEMS:
        value = values[system]
        factor = value / base if base else float("nan")
        paper_v = paper_values.get(system)
        rows.append(
            {
                "system": system, "value": value, "factor_vs_provlight": factor,
                "paper": paper_v,
            }
        )
        rendered.append(
            [
                system,
                unit_fmt(value),
                f"{factor:.1f}x" if system != "provlight" else "1x (reference)",
                unit_fmt(paper_v) if paper_v is not None else "-",
                f"{paper_factors[system]:.1f}x" if system in paper_factors else "-",
            ]
        )
    return rendered, rows


_HEADERS = ["system", "measured", "vs provlight", "paper value", "paper factor"]


def fig6a_cpu(runs: Optional[Dict[str, OverheadResult]] = None,
              repetitions: Optional[int] = None,
              base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Fig. 6a: capture CPU utilization (5x/7x claims)."""
    runs = runs or figure6_runs(repetitions, base=base)
    values = {
        s: runs[s].mean_metric(lambda m: m.capture_cpu_utilization) for s in SYSTEMS
    }
    rendered, rows = _factor_rows(
        values, paper.FIG6["cpu_utilization"],
        paper.FIG6["cpu_factor_vs_provlight"], fmt_pct,
    )
    checks = [
        ("provlight CPU utilization ~1.7-2%", 0.012 <= values["provlight"] <= 0.025),
        ("provlake uses ~7x more CPU (4x..10x)",
         4.0 < values["provlake"] / values["provlight"] < 10.0),
        ("dfanalyzer uses ~5x more CPU (3x..8x)",
         3.0 < values["dfanalyzer"] / values["provlight"] < 8.0),
    ]
    text = render_table("Fig. 6a - CPU overhead of capture", _HEADERS, rendered,
                        note="paper: ProvLight 1.7-2%; 7x/5x less than ProvLake/DfAnalyzer")
    return TableResult("fig6a", "Fig. 6a CPU", text, rows, checks)


def fig6b_memory(runs: Optional[Dict[str, OverheadResult]] = None,
                 repetitions: Optional[int] = None,
                 base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Fig. 6b: capture memory as a fraction of device RAM (~2x claim)."""
    runs = runs or figure6_runs(repetitions, base=base)
    values = {
        s: runs[s].mean_metric(lambda m: m.capture_memory_fraction) for s in SYSTEMS
    }
    rendered, rows = _factor_rows(
        values, paper.FIG6["memory_fraction"],
        paper.FIG6["memory_factor_vs_provlight"], fmt_pct,
    )
    checks = [
        ("provlight memory <4% of RAM", values["provlight"] < 0.04),
        ("provlake uses ~2x more memory (1.5x..3x)",
         1.5 < values["provlake"] / values["provlight"] < 3.0),
        ("dfanalyzer uses ~1.9x more memory (1.4x..3x)",
         1.4 < values["dfanalyzer"] / values["provlight"] < 3.0),
    ]
    text = render_table("Fig. 6b - memory overhead of capture", _HEADERS, rendered,
                        note="paper: ProvLight <4%; ~2x less than the baselines")
    return TableResult("fig6b", "Fig. 6b memory", text, rows, checks)


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
    values = {s: runs[s].mean_metric(lambda m: m.network_kb_per_s) for s in SYSTEMS}
    rendered, rows = _factor_rows(
        values, paper.FIG6["network_kb_per_s"],
        paper.FIG6["network_factor_vs_provlight"],
        lambda v: f"{v:.2f} KB/s" if v is not None else "-",
    )
    float_runs = figure6_runs(2, attribute_kind="float", base=base)
    float_values = {
        s: float_runs[s].mean_metric(lambda m: m.network_kb_per_s) for s in SYSTEMS
    }
    for system in SYSTEMS:
        factor = float_values[system] / float_values["provlight"]
        rendered.append(
            [
                f"{system} (float attrs)",
                f"{float_values[system]:.2f} KB/s",
                f"{factor:.1f}x" if system != "provlight" else "1x (reference)",
                "-", "-",
            ]
        )
        rows.append(
            {
                "system": f"{system}-float", "value": float_values[system],
                "factor_vs_provlight": factor, "paper": None,
            }
        )
    checks = [
        ("provlight transmits the least data",
         values["provlight"] < min(values["provlake"], values["dfanalyzer"])),
        ("baselines transmit at least ~2x more (int attrs)",
         min(values["provlake"], values["dfanalyzer"]) / values["provlight"] > 1.8),
        ("float attrs land near the paper's ~2x (1.5x..4x)",
         1.5 < float_values["provlake"] / float_values["provlight"] < 4.0),
    ]
    text = render_table(
        "Fig. 6c - network usage during capture", _HEADERS, rendered,
        note=(
            "paper: ProvLight ~3.7KB/s, ~1.9x/1.8x fewer data. With Listing-1 "
            "integer attributes compression is near-ideal, so the measured "
            "factor exceeds the paper's; float attributes reproduce ~2x."
        ),
    )
    return TableResult("fig6c", "Fig. 6c network", text, rows, checks)


def fig6d_power(runs: Optional[Dict[str, OverheadResult]] = None,
                repetitions: Optional[int] = None,
                base: ExperimentSetup = ExperimentSetup()) -> TableResult:
    """Fig. 6d: power consumption overhead (2.1x/2.6x claims)."""
    runs = runs or figure6_runs(repetitions, base=base)
    base_w = None
    values_w = {}
    for s in SYSTEMS:
        values_w[s] = runs[s].mean_metric(lambda m: m.average_power_w)
        base_w = runs[s].setup.device_spec.energy.base_w
    overheads = {s: values_w[s] / base_w - 1.0 for s in SYSTEMS}
    rendered, rows = _factor_rows(
        overheads, paper.FIG6["power_overhead"],
        paper.FIG6["power_factor_vs_provlight"], fmt_pct,
    )
    for row, system in zip(rendered, SYSTEMS):
        row[1] += f" ({values_w[system]:.3f}W)"
    checks = [
        ("provlight power overhead <3%", overheads["provlight"] < 0.03),
        ("baselines cost ~2-2.6x more power overhead (1.5x..3.5x)",
         all(1.5 < overheads[s] / overheads["provlight"] < 3.5
             for s in ("provlake", "dfanalyzer"))),
        ("average watts in the paper's band (1.40-1.52W)",
         all(1.40 < values_w[s] < 1.52 for s in SYSTEMS)),
    ]
    text = render_table(
        "Fig. 6d - power consumption overhead", _HEADERS, rendered,
        note=(
            "paper: 2.58%/5.46%/6.82% at 1.43/1.47/1.49W. The paper's "
            "DfAnalyzer>ProvLake inversion (despite less CPU+network) is "
            "within max-power measurement noise; our model yields them near-tied."
        ),
    )
    return TableResult("fig6d", "Fig. 6d power", text, rows, checks)


ALL_FIGURES = {
    "fig6a": fig6a_cpu,
    "fig6b": fig6b_memory,
    "fig6c": fig6c_network,
    "fig6d": fig6d_power,
}
