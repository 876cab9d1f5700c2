"""Benchmark: paper Table IX — ProvLight scalability to 64 devices.

8..64 devices publish to per-device topics in parallel; the broker fans
out to one translator per topic. Per-device overhead stays flat because
clients publish asynchronously — the cloud side absorbs the fan-in.
"""

from conftest import run_once

from repro.harness import default_repetitions, table9


def test_table9_scalability(benchmark, show):
    result = run_once(benchmark, lambda: table9(default_repetitions(fallback=2)))
    show(result.text)
    assert result.ok, result.failed_checks()
