"""Benchmark: paper Table X — capture overhead on cloud servers.

Same workloads on the Xeon device model over a LAN-latency link: all
three systems are low overhead (<3%), with ProvLight still the fastest
by roughly the paper's 7x/5x factors.
"""

from conftest import run_once

from repro.harness import default_repetitions, table10


def test_table10_cloud_overhead(benchmark, show):
    result = run_once(benchmark, lambda: table10(default_repetitions(fallback=3)))
    show(result.text)
    assert result.ok, result.failed_checks()
