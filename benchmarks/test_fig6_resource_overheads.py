"""Benchmark: paper Fig. 6 (a-d) — CPU, memory, network and power
overheads of capture on the edge device.

All four panels share one experimental condition (0.5 s tasks, 100
attributes), executed once per system by the module-scoped fixture.
"""

import pytest
from conftest import run_once

from repro.harness import (
    default_repetitions,
    fig6a_cpu,
    fig6b_memory,
    fig6c_network,
    fig6d_power,
    figure6_runs,
)


@pytest.fixture(scope="module")
def runs():
    return figure6_runs(default_repetitions(fallback=3))


def test_fig6a_cpu_overhead(benchmark, show, runs):
    result = run_once(benchmark, lambda: fig6a_cpu(runs))
    show(result.text)
    assert result.ok, result.failed_checks()


def test_fig6b_memory_overhead(benchmark, show, runs):
    result = run_once(benchmark, lambda: fig6b_memory(runs))
    show(result.text)
    assert result.ok, result.failed_checks()


def test_fig6c_network_overhead(benchmark, show, runs):
    result = run_once(benchmark, lambda: fig6c_network(runs))
    show(result.text)
    assert result.ok, result.failed_checks()


def test_fig6d_power_overhead(benchmark, show, runs):
    result = run_once(benchmark, lambda: fig6d_power(runs))
    show(result.text)
    assert result.ok, result.failed_checks()
