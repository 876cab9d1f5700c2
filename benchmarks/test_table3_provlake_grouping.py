"""Benchmark: paper Table III — ProvLake grouping vs bandwidth.

Grouping amortizes the expensive serialize+POST over many records: at
1 Gbit it reaches low overhead (<3%) at group=50, while at 25 Kbit the
transfer time dominates and overhead stays >43% for every group size.
"""

from conftest import run_once

from repro.harness import default_repetitions, table3


def test_table3_provlake_grouping(benchmark, show):
    result = run_once(benchmark, lambda: table3(default_repetitions(fallback=3)))
    show(result.text)
    assert result.ok, result.failed_checks()
