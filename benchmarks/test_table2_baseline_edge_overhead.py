"""Benchmark: paper Table II — baseline capture overhead on IoT/Edge.

Reproduces the 8-workload grid for ProvLake and DfAnalyzer on the A8-M3
device model (1 Gbit + 23 ms emulated path) and checks the table's shape:
every cell is high overhead (>3%), ProvLake is slower than DfAnalyzer,
and each cell lands near the paper's value.
"""

from conftest import run_once

from repro.harness import default_repetitions, table2


def test_table2_baseline_edge_overhead(benchmark, show):
    result = run_once(benchmark, lambda: table2(default_repetitions(fallback=3)))
    show(result.text)
    assert result.ok, result.failed_checks()
