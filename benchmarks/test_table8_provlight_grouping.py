"""Benchmark: paper Table VIII — ProvLight grouping vs bandwidth.

Because publishing is asynchronous, ProvLight's workflow-visible overhead
is insensitive to a 40000x bandwidth drop (1 Gbit -> 25 Kbit), and
grouping ended-task records shaves the remaining per-call cost.
"""

from conftest import run_once

from repro.harness import default_repetitions, table8


def test_table8_provlight_grouping(benchmark, show):
    result = run_once(benchmark, lambda: table8(default_repetitions(fallback=3)))
    show(result.text)
    assert result.ok, result.failed_checks()
