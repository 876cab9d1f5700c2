"""Benchmark: paper Table VII — ProvLight capture overhead on IoT/Edge.

The headline table: ProvLight stays under 3% on all eight synthetic
workloads (vs >39% for the baselines at 0.5 s tasks), under 0.5% for
3.5 s+ tasks, and attribute count barely moves the needle.
"""

from conftest import run_once

from repro.harness import default_repetitions, table7


def test_table7_provlight_edge_overhead(benchmark, show):
    result = run_once(benchmark, lambda: table7(default_repetitions(fallback=3)))
    show(result.text)
    assert result.ok, result.failed_checks()
