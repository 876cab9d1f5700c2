"""Compare two benchmark passes: ``python bench/compare.py A.json B.json``.

``A.json`` and ``B.json`` are ``bench/run.py --out`` files, A the parent
commit and B the change, made with the same benchmark code and settings.
For every (workload, end-to-end metric) of ``BENCHMARK.json`` it prints
each side's median and quartiles, the share of index-paired runs B wins
(ties count for neither), and a verdict:

* ``improved``   B wins at least nine tenths of the pairs and the medians
  differ by more than A's own spread (its interquartile distance);
* ``regressed``  B's median is worse than A's by more than the bound;
* ``unresolved`` either side's spread, as a share of its median, exceeds
  the bound, unless every run of B reads better than every run of A;
* ``unchanged``  otherwise.

A change that fails more records than A regresses too.  The exit code is 1
when anything regressed.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

from run import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(a: List[float], b: List[float], bound: float,
            better: str) -> Tuple[str, float, float]:
    """``(verdict, relative worsening of the median, B's win share)``."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0 is worse
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    worse = sign * _relative(med_b - med_a, med_a)
    pairs = list(zip(a, b))
    win_share = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    spread = max(_relative(q3a - q1a, med_a), _relative(q3b - q1b, med_b))
    if win_share >= 0.9 and worse < 0 and abs(med_b - med_a) > q3a - q1a:
        return "improved", worse, win_share
    if worse > bound:
        return "regressed", worse, win_share
    if spread > bound and not all(sign * (y - x) < 0 for x in a for y in b):
        return "unresolved", worse, win_share
    return "unchanged", worse, win_share


def compare(a: Dict, b: Dict, metrics: List[Dict]) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines, regressed = [], False
    for name in sorted(a["workloads"].keys() & b["workloads"].keys()):
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wb["failed"] > wa["failed"]:
            lines.append(f"{name} failed {wa['failed']} -> {wb['failed']} records regressed")
            regressed = True
        for metric in metrics:
            key = metric["name"]
            va = [run[key] for run in wa["runs"]]
            vb = [run[key] for run in wb["runs"]]
            result, worse, wins = verdict(va, vb, metric["bound"], metric["better"])
            regressed |= result == "regressed"
            (q1a, ma, q3a), (q1b, mb, q3b) = quartiles(va), quartiles(vb)
            lines.append(
                f"{name} {key} A {ma:.6g} [{q1a:.6g}, {q3a:.6g}] "
                f"B {mb:.6g} [{q1b:.6g}, {q3b:.6g}] {metric['unit']} "
                f"worse {worse:+.2%} wins {wins:.0%} bound {metric['bound'] * 100:g}% {result}"
            )
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines, regressed = compare(json.load(fa), json.load(fb), metrics)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
