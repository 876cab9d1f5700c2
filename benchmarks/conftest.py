"""Shared benchmark configuration.

Repetitions per experimental condition default to 3 here (the paper uses
10; each benchmark passes ``default_repetitions(fallback=3)``) so the full
benchmark suite finishes in minutes; set ``REPRO_REPETITIONS`` to
reproduce the paper's statistics exactly::

    REPRO_REPETITIONS=10 pytest benchmarks/ --benchmark-only
"""

import pytest


@pytest.fixture
def show(capsys):
    """Print through pytest's capture so tables appear in the output."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _show


def run_once(benchmark, fn):
    """Run a harness driver exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
