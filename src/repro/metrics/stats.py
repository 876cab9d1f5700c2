"""Statistics helpers for the evaluation harness.

The paper reports "the mean followed by the 95% confidence interval" over
10 repetitions of each experiment; :func:`mean_ci` reproduces exactly
that (Student-t interval), and :func:`relative_overhead` is the paper's
capture-time-overhead metric.

:mod:`scipy.stats` is imported inside :func:`mean_ci`, its only user, so
a capture run, which never computes a confidence interval, does not pay
for loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["MeanCI", "mean_ci", "relative_overhead", "speedup"]


@dataclass(frozen=True)
class MeanCI:
    """A mean with a symmetric confidence half-width."""

    mean: float
    halfwidth: float
    n: int
    confidence: float = 0.95

    def __str__(self) -> str:
        return f"{self.mean:.4g} ±{self.halfwidth:.2g}"

    def as_percent(self) -> str:
        return f"{self.mean * 100:.2f}% ±{self.halfwidth * 100:.2f}"

    @property
    def low(self) -> float:
        return self.mean - self.halfwidth

    @property
    def high(self) -> float:
        return self.mean + self.halfwidth


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Mean and Student-t confidence half-width of ``values``."""
    from scipy import stats as _scipy_stats

    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("mean_ci of empty sequence")
    mean = float(np.mean(data))
    if data.size == 1:
        return MeanCI(mean=mean, halfwidth=0.0, n=1, confidence=confidence)
    sem = float(_scipy_stats.sem(data))
    if sem == 0.0:
        return MeanCI(mean=mean, halfwidth=0.0, n=int(data.size), confidence=confidence)
    halfwidth = float(
        sem * _scipy_stats.t.ppf((1.0 + confidence) / 2.0, data.size - 1)
    )
    return MeanCI(mean=mean, halfwidth=halfwidth, n=int(data.size), confidence=confidence)


def relative_overhead(with_capture: float, without_capture: float) -> float:
    """The paper's capture-time overhead: relative elapsed-time difference."""
    if without_capture <= 0:
        raise ValueError("baseline duration must be positive")
    return (with_capture - without_capture) / without_capture


def speedup(baseline: float, improved: float) -> float:
    """How many times faster ``improved`` is than ``baseline``."""
    if improved <= 0:
        raise ValueError("improved value must be positive")
    return baseline / improved
