"""The paper's claims as named relations over sibling runs.

A *cell* is one experimental condition, ``(ExperimentSetup,
SyntheticWorkloadConfig)``.  A :class:`Relation` states one claim of the
paper's evaluation over a cell's *siblings*, the cells that differ from
it only in the relation's ``knob``, one per knob value, derived with
:func:`dataclasses.replace` (without a knob, it bounds the cell alone).
It applies to a cell that meets its precondition ``when`` (field ->
allowed values) and whose knob value is one of its values.

:func:`evaluate` turns measured cells into ``(description, verdict)``
checks.  Each table and figure passes its whole grid; the per-spec entry
point passes one drawn cell and a ``measure`` that runs its siblings,
and so checks every claim that applies to that one run::

    evaluate({(setup, config): measure(setup, config)}, measure)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any, Callable, List, Mapping, Optional, Tuple

import numpy as np

from ..device import A8M3, XEON_GOLD_5220
from ..workloads import SyntheticWorkloadConfig
from . import paper_reference as paper
from .experiments import SYSTEMS, ExperimentSetup, OverheadResult

__all__ = ["Cell", "Relation", "RELATIONS", "evaluate"]

Cell = Tuple[ExperimentSetup, SyntheticWorkloadConfig]


def _get(cell: Cell, name: str) -> Any:
    return getattr(cell[0] if hasattr(cell[0], name) else cell[1], name)


def _with(cell: Cell, name: str, value: Any) -> Cell:
    setup, config = cell
    return ((replace(setup, **{name: value}), config) if hasattr(setup, name)
            else (setup, replace(config, **{name: value})))


@dataclass(frozen=True)
class Relation:
    """One claim of the paper over a cell and its siblings."""

    name: str  # the check description, a template over the cell's fields
    table: str  # the harness target that reproduces it
    reference: str  # its entry in repro.harness.paper_reference
    #: one value per sibling, read off its measures (an
    #: :class:`OverheadResult`; Table IV's are a dict)
    metric: Callable[[Any], float]
    holds: Callable[..., bool]  # the claim, over the values in knob order
    knob: Optional[str]  # the field siblings differ in; None: one cell
    values: Tuple[Any, ...]
    when: Mapping[str, Tuple[Any, ...]]

    def applies(self, cell: Cell) -> bool:
        return (all(_get(cell, name) in allowed for name, allowed in self.when.items())
                and (self.knob is None or _get(cell, self.knob) in self.values))

    def siblings(self, cell: Cell) -> Tuple[Cell, ...]:
        return (cell,) if self.knob is None else tuple(
            _with(cell, self.knob, value) for value in self.values)

    def describe(self, cell: Cell) -> str:
        return self.name.format(**vars(cell[0]), **vars(cell[1]))


def evaluate(
    cells: Mapping[Cell, OverheadResult],
    measure: Optional[Callable[[ExperimentSetup, SyntheticWorkloadConfig],
                               OverheadResult]] = None,
    table: Optional[str] = None,
) -> List[Tuple[str, bool]]:
    """Evaluate once every instance of a relation (of ``table``, when
    given) that applies to a cell of ``cells``.  A sibling not in
    ``cells`` is run with ``measure``; without one, it is an error."""
    relations = [r for r in RELATIONS if table in (None, r.table)]
    results = dict(cells)
    seen = set()
    checks: List[Tuple[str, bool]] = []
    for cell in cells:
        for index, relation in enumerate(relations):
            siblings = relation.applies(cell) and relation.siblings(cell)
            if not siblings or (index, siblings) in seen:
                continue
            seen.add((index, siblings))
            for sibling in siblings:
                if sibling not in results:
                    if measure is None:
                        raise LookupError(
                            f"{relation.table} relation {relation.describe(cell)!r} "
                            f"at {cell[0].describe()} {cell[1]}: its sibling "
                            f"{relation.knob}={_get(sibling, relation.knob)!r} is not in the grid")
                    results[sibling] = measure(*sibling)
            values = [relation.metric(results[sibling]) for sibling in siblings]
            checks.append((relation.describe(cell), bool(relation.holds(*values))))
    return checks


def _overhead(result: OverheadResult) -> float:
    """The mean overhead (``result.ci.mean``, without its interval)."""
    return float(np.mean(result.overheads))


def _off_table2(result: OverheadResult) -> float:
    """Relative distance from the paper's Table II value."""
    expected = paper.TABLE2[result.setup.system, result.config.attributes_per_task][
        result.config.task_duration_s]
    return abs(_overhead(result) - expected) / expected


def _mean_of(field: str) -> Callable[[OverheadResult], float]:
    return lambda result: result.mean_metric(lambda m: getattr(m, field))


def _power_overhead(result: OverheadResult) -> float:
    return _mean_of("average_power_w")(result) / result.setup.device_spec.energy.base_w - 1.0


def _wire_bytes_per_record(result: OverheadResult) -> float:
    """Edge radio bytes (tx + rx) per record the ingest front stored,
    read from each run's telemetry, averaged over the runs."""
    if not result.outcomes:
        raise ValueError("wire bytes per record reads the runs' telemetry: keep_outcomes=True")
    per_run = []
    for outcome in result.outcomes:
        counters = outcome.telemetry["counters"]
        radio = sum(c["total"] for c in counters if c["component"] == "radio"
                    and c["labels"]["device"] != "cloud-device")
        per_run.append(radio / sum(c["total"] for c in counters
                                   if (c["component"], c["name"]) == ("front", "ingested")))
    return float(np.mean(per_run))


def _falling(*values: float) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _family(table: str, reference: str, metric=_overhead, **domain: Tuple[Any, ...]):
    """The constructor of ``table``'s relations: each one reads ``metric``
    unless it names its own, and its precondition is ``domain`` updated
    with its own ``when`` fields."""
    def relation(name: str, holds: Callable[..., bool], knob: Optional[str] = None,
                 values: Tuple[Any, ...] = (), own_metric=None, **when) -> Relation:
        return Relation(name, table, reference, own_metric or metric, holds, knob, values,
                        {**domain, **when})
    return relation


_LOW = paper.LOW_OVERHEAD_THRESHOLD
_EDGE = dict(device_spec=(A8M3,), n_devices=(1,), group_size=(0,))
_TASKS = dict(_EDGE, attributes_per_task=(10, 100), task_duration_s=paper.DURATIONS)
_GROUPS = dict(_EDGE, bandwidth=("1Gbit", "25Kbit"), group_size=paper.GROUPS,
               attributes_per_task=(100,), task_duration_s=(0.5, 1.0))
_FIG6 = dict(_EDGE, attributes_per_task=(100,), task_duration_s=(0.5,), attribute_kind=("int",))
_T2 = _family("table2", "TABLE2", system=("provlake", "dfanalyzer"), **_TASKS)
_T3 = _family("table3", "TABLE3", system=("provlake",), **_GROUPS)
_T4 = _family("table4", "TABLE4", itemgetter("overhead"), system=("prov-io",))
_T7 = _family("table7", "TABLE7", system=("provlight",), **_TASKS)
_T8 = _family("table8", "TABLE8", system=("provlight",), **_GROUPS)
_T9 = _family("table9", "TABLE9", system=("provlight",), **dict(
    _EDGE, n_devices=tuple(paper.TABLE9), attributes_per_task=(100,), task_duration_s=(0.5,)))
_T10 = _family("table10", "TABLE10", **dict(_TASKS, device_spec=(XEON_GOLD_5220,),
                                            attributes_per_task=(100,)))
_F6A = _family("fig6a", "FIG6", _mean_of("capture_cpu_utilization"), **_FIG6)
_F6B = _family("fig6b", "FIG6", _mean_of("capture_memory_fraction"), **_FIG6)
_F6C = _family("fig6c", "FIG6", _mean_of("network_kb_per_s"), **_FIG6)
_F6D = _family("fig6d", "FIG6", _power_overhead, **_FIG6)
_AT = "@{attributes_per_task}/{task_duration_s}s"
_FALLS = "{system}@{attributes_per_task} attrs: overhead falls as tasks lengthen"
_LIGHT = dict(system=("provlight",))
_LAKE, _DF = ("provlake", "provlight"), ("dfanalyzer", "provlight")

#: every claim the harness checks
RELATIONS: Tuple[Relation, ...] = (
    _T2("{system}" + _AT + " is high overhead (>3%)", lambda v: v > _LOW),
    _T2("{system}" + _AT + " within 35% of paper", lambda off: off < 0.35,
        own_metric=_off_table2),
    _T2("provlake slower than dfanalyzer " + _AT, lambda lake, df: lake > df,
        "system", ("provlake", "dfanalyzer")),
    _T2(_FALLS, _falling, "task_duration_s", paper.DURATIONS),
    _T3("1Gbit: grouping 50 reaches low overhead at {task_duration_s}s",
        lambda v: v < _LOW, bandwidth=("1Gbit",), group_size=(50,)),
    _T3("1Gbit: grouping monotonically helps at {task_duration_s}s",
        lambda g0, g10, g50: g0 > g10 > g50, "group_size", (0, 10, 50), bandwidth=("1Gbit",)),
    _T3("25Kbit: overhead stays high (>43%) for all groups at {task_duration_s}s",
        lambda *v: all(x > 0.43 for x in v), "group_size", paper.GROUPS,
        bandwidth=("25Kbit",)),
    _T3("25Kbit ungrouped is several times worse than 1Gbit at {task_duration_s}s",
        lambda slow, fast: slow / fast > 3.0, "bandwidth", ("25Kbit", "1Gbit"),
        group_size=(0,)),
    _T4("{system} sends no captured byte over the network (dump every "
        "{dump_every_records})", lambda v: v == 0, own_metric=itemgetter("tx_bytes")),
    _T4("{system} holds its whole graph in RAM until a dump (every "
        "{dump_every_records} records)", lambda v: v > 0,
        own_metric=itemgetter("resident_bytes"), dump_every_records=(1000,)),
    _T4("{system} graph dumps stall the workflow (every 5 vs 1000 records: >0.1s)",
        lambda frequent, rare: frequent > rare + 0.1, "dump_every_records", (5, 1000),
        own_metric=itemgetter("elapsed_s")),
    _T4("{system} is high overhead (>3%)", lambda v: v > _LOW, system=("komadu",)),
    _T4("{system} runs its server pipeline on the edge CPU (>10x its capture work)",
        lambda v: v > 10.0, own_metric=itemgetter("server_cpu_ratio"), system=("komadu",)),
    _T4("{system} keeps the edge CPU busy (>20%)", lambda v: v > 0.2,
        own_metric=itemgetter("cpu_utilization"), system=("komadu",)),
    _T7("sub-0.5% overhead for long tasks " + _AT, lambda v: v < 0.005,
        task_duration_s=(3.5, 5.0)),
    _T7("overhead under 2% " + _AT, lambda v: v < 0.02, task_duration_s=(0.5, 1.0)),
    _T7(_FALLS, _falling, "task_duration_s", paper.DURATIONS),
    _T8("low overhead (<2%) at 25Kbit group={group_size} {task_duration_s}s",
        lambda v: v < 0.02, bandwidth=("25Kbit",)),
    _T8("bandwidth-insensitive at group={group_size} {task_duration_s}s",
        lambda fast, slow: abs(slow - fast) / fast < 0.15, "bandwidth", ("1Gbit", "25Kbit")),
    _T8("grouping still helps a little at {task_duration_s}s",
        lambda g0, g50: g50 <= g0, "group_size", (0, 50), bandwidth=("1Gbit",)),
    _T8("grouping lowers wire bytes per record at {bandwidth} {task_duration_s}s",
        _falling, "group_size", paper.GROUPS, own_metric=_wire_bytes_per_record),
    _T9("low overhead (<3%) at {n_devices} devices", lambda v: v < _LOW),
    _T9("scaling 8->64 devices changes overhead by <20% relative",
        lambda d8, d64: abs(d64 - d8) / d8 < 0.20, "n_devices", (8, 64)),
    _T10("{system}@{task_duration_s}s low overhead (<3%) in cloud", lambda v: v < _LOW),
    _T10("provlight fastest in cloud at {task_duration_s}s",
         lambda light, df, lake: light < df < lake, "system",
         ("provlight", "dfanalyzer", "provlake")),
    _T10("provlight roughly 7x faster than provlake (3x..20x)",
         lambda lake, light: 3.0 < lake / light < 20.0, "system", _LAKE, task_duration_s=(0.5,)),
    _T10("provlight roughly 5x faster than dfanalyzer (2.5x..15x)",
         lambda df, light: 2.5 < df / light < 15.0, "system", _DF, task_duration_s=(0.5,)),
    _F6A("provlight CPU utilization ~1.7-2%", lambda v: 0.012 <= v <= 0.025, **_LIGHT),
    _F6A("provlake uses ~7x more CPU (4x..10x)", lambda lake, light: 4.0 < lake / light < 10.0,
         "system", _LAKE),
    _F6A("dfanalyzer uses ~5x more CPU (3x..8x)", lambda df, light: 3.0 < df / light < 8.0,
         "system", _DF),
    _F6B("provlight memory <4% of RAM", lambda v: v < 0.04, **_LIGHT),
    _F6B("provlake uses ~2x more memory (1.5x..3x)", lambda lake, light: 1.5 < lake / light < 3.0,
         "system", _LAKE),
    _F6B("dfanalyzer uses ~1.9x more memory (1.4x..3x)", lambda df, light: 1.4 < df / light < 3.0,
         "system", _DF),
    _F6C("provlight transmits the least data", lambda light, lake, df: light < min(lake, df),
         "system", SYSTEMS),
    _F6C("baselines transmit at least ~2x more (int attrs)",
         lambda light, lake, df: min(lake, df) / light > 1.8, "system", SYSTEMS),
    _F6C("float attrs land near the paper's ~2x (1.5x..4x)",
         lambda lake, light: 1.5 < lake / light < 4.0, "system", _LAKE, attribute_kind=("float",)),
    _F6D("provlight power overhead <3%", lambda v: v < 0.03, **_LIGHT),
    _F6D("baselines cost ~2-2.6x more power overhead (1.5x..3.5x)",
         lambda light, *baselines: all(1.5 < b / light < 3.5 for b in baselines),
         "system", SYSTEMS),
    _F6D("average watts in the paper's band (1.40-1.52W)",
         lambda *watts: all(1.40 < w < 1.52 for w in watts), "system", SYSTEMS,
         own_metric=_mean_of("average_power_w")),
)
