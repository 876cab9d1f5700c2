"""The paper's claims as relations: the evaluator against the frozen
inline checks, the per-spec entry point against the grid, and the
evaluator's edge cases."""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import A8M3, XEON_GOLD_5220
from repro.harness import ALL_FIGURES, ALL_TABLES, ALL_TARGETS, ExperimentSetup, OverheadResult
from repro.harness import figures, paper_reference, tables
from repro.harness.experiments import RunOutcome, measure_overhead
from repro.harness.relations import RELATIONS, evaluate
from repro.workloads import SyntheticWorkloadConfig

from .checks_oracle import fig6a, fig6b, fig6c, fig6d, table2, table3, table7, table8, table9, table10

ORACLES = {"table2": table2, "table3": table3, "table7": table7, "table8": table8,
           "table9": table9, "table10": table10}
#: the relations added with the evaluator, which the inline checks lacked
NEW = {"table2": 4, "table7": 2, "table8": 4}
NEW_NAMES = ("overhead falls as tasks lengthen", "grouping lowers wire bytes per record")

#: what the wire-bytes relation reads of a run's telemetry
TELEMETRY = {"counters": [
    {"component": "radio", "name": "tx", "labels": {"device": "edge-0"}, "total": 100.0},
    {"component": "front", "name": "ingested", "labels": {}, "total": 1.0},
]}

BASE_W = A8M3.energy.base_w
#: next to an edge: at it and 0.1% to either side
NEXT_TO = (0.999, 1.0, 1.001)
#: every absolute bound a check compares against (the power band of
#: Fig. 6d as overheads over the device's base power)
BOUNDS = (0.005, 0.012, 0.02, 0.025, 0.03, 0.04, 0.43, 1.40 / BASE_W - 1.0,
          1.52 / BASE_W - 1.0)
#: every edge of a ratio band (a relative band as the ratio of its edge)
EDGES = (0.8, 0.85, 1.15, 1.2, 1.4, 1.5, 1.8, 2.5, 3.0, 3.5, 4.0, 8.0, 10.0, 15.0, 20.0)
LEVELS = [b * k for b in BOUNDS for k in NEXT_TO]
RATIOS = [1.0] + [e * k for e in EDGES for k in NEXT_TO]
#: a Table II cell's measure over the paper's value: on it, or at or 0.1%
#: to either side of 35% from it
NEAR_PAPER = [1.0] + [e * k for e in (0.65, 1.35) for k in NEXT_TO]


def _fake_measure(rng, drawn, target):
    """A ``measure_overhead`` stand-in that draws every value ``target``'s
    checks read from ``rng``; a figure's run metrics are kept in
    ``drawn`` by cell.

    An example draws a level (next to a bound, or anywhere) and a ratio
    next to a band edge; each measure is the level times 0, 1 or 2 ratios (or anything),
    so two cells tie or sit a ratio (or its square) apart.  In a figure
    and in Table X, ProvLight's measures sit at the level and the
    baselines' 1 or 2 ratios above it.
    """
    level = rng.choice(LEVELS) if rng.random() < 0.5 else 10 ** rng.uniform(-3.5, 0.0)
    ratio = rng.choice(RATIOS)

    def value(system=None):
        if system is not None:
            return level * ratio ** (0 if system == "provlight" else rng.choice((1, 2)))
        steps = rng.choice((0, 1, 2, None))
        return 10 ** rng.uniform(-4.0, 0.3) if steps is None else level * ratio ** steps

    def measure(setup, config, repetitions):
        relative = setup.system if target in ALL_FIGURES or target == "table10" else None
        if target == "table2" and rng.random() < 0.5:
            overhead = rng.choice(NEAR_PAPER) * paper_reference.TABLE2[
                setup.system, config.attributes_per_task][config.task_duration_s]
        else:
            overhead = value(relative)
        metrics = None
        if target in ALL_FIGURES:
            metrics = drawn[setup.system, config.attribute_kind] = SimpleNamespace(
                capture_cpu_utilization=value(relative),
                capture_memory_fraction=value(relative),
                network_kb_per_s=value(relative),
                average_power_w=BASE_W * (1.0 + value(relative)),
            )
        outcome = RunOutcome(elapsed=[1.0], metrics=[metrics], backend_records=1,
                             telemetry=TELEMETRY)
        return OverheadResult(setup, config, [overhead], [outcome])
    return measure


def _oracle(target, result, drawn):
    if target in ORACLES:
        return ORACLES[target](result.rows)
    ints = {system: m for (system, kind), m in drawn.items() if kind == "int"}
    value = {"fig6a": "capture_cpu_utilization", "fig6b": "capture_memory_fraction",
             "fig6c": "network_kb_per_s", "fig6d": "average_power_w"}[target]
    values = {system: getattr(m, value) for system, m in ints.items()}
    if target == "fig6a":
        return fig6a(values)
    if target == "fig6b":
        return fig6b(values)
    if target == "fig6c":
        floats = {system: m.network_kb_per_s for (system, kind), m in drawn.items()
                  if kind == "float"}
        return fig6c(values, floats)
    return fig6d(values, BASE_W)


@pytest.mark.parametrize("target", [*ORACLES, *ALL_FIGURES])
def test_relations_give_the_frozen_checks_verdicts(target):
    """On drawn overheads and metrics, every target's relations give the
    inline checks' ``(description, verdict)`` set, minus Table VII's
    ``<3%`` checks that its ``<2%`` and ``<0.5%`` bounds imply, plus the
    new relations; and the draws reach both verdicts of every check."""
    driver = ALL_TABLES.get(target) or ALL_FIGURES[target]
    verdicts = {}

    @given(st.randoms(use_true_random=True))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def check(rng):
        drawn = {}
        measure = _fake_measure(rng, drawn, target)
        with mock.patch.object(tables, "measure_overhead", measure), \
                mock.patch.object(figures, "measure_overhead", measure):
            result = driver(repetitions=1)
        descriptions = [description for description, _ in result.checks]
        assert len(descriptions) == len(set(descriptions))
        new = {c for c in result.checks if any(name in c[0] for name in NEW_NAMES)}
        assert len(new) == NEW.get(target, 0)
        want = {c for c in _oracle(target, result, drawn)
                if not (target == "table7" and "is low overhead (<3%)" in c[0])}
        assert set(result.checks) - new == want
        for description, verdict in want:
            verdicts.setdefault(description, set()).add(verdict)

    check()
    assert {d: v for d, v in verdicts.items() if v != {True, False}} == {}


def test_per_spec_checks_match_the_grid():
    """Each cell of Tables VIII and X, checked alone with a ``measure``
    that runs its siblings, gets the grid's verdicts, and the cells
    together get all of them."""
    measured = {}

    def measure(setup, config):
        if (setup, config) not in measured:
            measured[setup, config] = measure_overhead(setup, config, repetitions=1)
        return measured[setup, config]

    for target in ("table8", "table10"):
        with mock.patch.object(tables, "measure_overhead",
                               wraps=tables.measure_overhead) as grid_runs:
            result = ALL_TABLES[target](repetitions=1)
        grid = set(result.checks)
        found = set()
        for call in grid_runs.call_args_list:
            cell = call.args[:2]
            checks = set(evaluate({cell: measure(*cell)}, measure, table=target))
            assert checks and checks <= grid
            found |= checks
        assert found == grid
        assert result.ok


def _fixed(setup, config):
    outcome = RunOutcome(elapsed=[1.0], metrics=[], backend_records=1, telemetry=TELEMETRY)
    return OverheadResult(setup, config, [0.01], [outcome])


def test_a_drawn_run_gets_the_claims_that_apply_to_it():
    cell = (ExperimentSetup(),
            SyntheticWorkloadConfig(attributes_per_task=100, task_duration_s=0.5))
    assert {r.table for r in RELATIONS if r.applies(cell)} == {
        "table7", "table8", "fig6a", "fig6b", "fig6c", "fig6d"}
    runs = []

    def measure(setup, config):
        runs.append((setup.bandwidth, setup.group_size))
        return _fixed(setup, config)

    checks = dict(evaluate({cell: _fixed(*cell)}, measure, table="table8"))
    assert checks == {
        "bandwidth-insensitive at group=0 0.5s": True,
        "grouping still helps a little at 0.5s": True,
        "grouping lowers wire bytes per record at 1Gbit 0.5s": False,  # all equal
    }
    # each sibling runs once
    assert sorted(runs) == [("1Gbit", 10), ("1Gbit", 20), ("1Gbit", 50), ("25Kbit", 0)]


def test_a_grid_missing_a_sibling_raises_naming_the_relation_and_the_cell():
    cells = {}
    for system in ("provlight", "provlake"):  # no dfanalyzer
        for duration in paper_reference.DURATIONS:
            setup = ExperimentSetup(system=system, device_spec=XEON_GOLD_5220,
                                    delay="0.05ms", bandwidth="1Gbit")
            config = SyntheticWorkloadConfig(attributes_per_task=100, task_duration_s=duration)
            cells[setup, config] = _fixed(setup, config)
    with pytest.raises(LookupError) as error:
        evaluate(cells, table="table10")
    message = str(error.value)
    assert "provlight fastest in cloud at 0.5s" in message
    assert "provlight 1Gbit delay=0.05ms" in message
    assert "system='dfanalyzer'" in message


def test_every_relation_names_a_paper_entry_and_a_target():
    for relation in RELATIONS:
        assert relation.reference in paper_reference.__all__
        assert hasattr(paper_reference, relation.reference)
        assert relation.table in ALL_TARGETS
    assert {relation.table for relation in RELATIONS} == set(ALL_TARGETS)


#: Table IV's checks, each with the one change of its runs' measures that
#: makes it fail: ``(system, dump interval) -> measures -> new measures``
TABLE4_BREAKS = {
    "prov-io sends no captured byte over the network (dump every 5)":
        (("prov-io", 5), lambda m: {**m, "tx_bytes": 1.0}),
    "prov-io sends no captured byte over the network (dump every 1000)":
        (("prov-io", 1000), lambda m: {**m, "tx_bytes": 1.0}),
    "prov-io holds its whole graph in RAM until a dump (every 1000 records)":
        (("prov-io", 1000), lambda m: {**m, "resident_bytes": 0}),
    "prov-io graph dumps stall the workflow (every 5 vs 1000 records: >0.1s)":
        (("prov-io", 5), lambda m: {**m, "elapsed_s": m["elapsed_s"] - 0.09}),
    # the no-capture run of seed 1 takes 1.9996 s: 2.04 s is a 2% overhead
    "komadu is high overhead (>3%)":
        (("komadu", 50), lambda m: {**m, "elapsed_s": 2.04}),
    "komadu runs its server pipeline on the edge CPU (>10x its capture work)":
        (("komadu", 50), lambda m: {**m, "server_cpu_ratio": 10.0}),
    "komadu keeps the edge CPU busy (>20%)":
        (("komadu", 50), lambda m: {**m, "cpu_utilization": 0.2}),
}


def test_table4_checks_the_limits_the_paper_cites_on_the_real_clients():
    result = tables.table4(repetitions=1)
    assert dict(result.checks) == dict.fromkeys(TABLE4_BREAKS, True)
    assert [(row["system"], row["dump_every_records"]) for row in result.rows] == [
        ("prov-io", 5), ("prov-io", 1000), ("komadu", 50)]
    for system, why in paper_reference.TABLE4.items():
        assert f"paper: {system} {why}" in result.text


@pytest.mark.parametrize("check", TABLE4_BREAKS)
def test_table4_fails_the_check_whose_limit_goes_away(check):
    from repro.baselines import excluded

    (system, dump_every), edit = TABLE4_BREAKS[check]
    real = excluded.run_excluded

    def run(setup, config, seed):
        measures = real(setup, config, seed)
        if (setup.system, setup.dump_every_records) == (system, dump_every):
            measures = edit(measures)
        return measures

    with mock.patch.object(excluded, "run_excluded", run):
        result = tables.table4(repetitions=1)
    assert dict(result.checks) == {**dict.fromkeys(TABLE4_BREAKS, True), check: False}
