"""Paired benchmark runs of two checkouts, then the parent's verdicts.

    python scripts/paired_bench.py PARENT CHANGE --workload W [--pairs 10] [--seed S] [--dir D]

``PARENT`` and ``CHANGE`` are two checkouts of this repository (make the
parent's with ``git clone`` or ``git archive``).  For each of ``--pairs``
pairs the script runs ``bench/run.py --workload W --runs 1 --seed S
--out FILE`` once in each checkout, one after the other.  The parent
goes first in even pairs and the change in odd ones, so a drift in the
host's speed falls on both sides alike.  Every run uses the same
benchmark settings, so both sides have the same run length.

Each side's per-pair files are merged into one file of the ``--out``
format (``PARENT.json`` and ``CHANGE.json`` in ``--dir``, a fresh
temporary directory by default): the runs of every workload in pair
order, and the records attempted and failed summed.  The script then
prints what the parent checkout's ``bench/compare.py`` says about the
two merged files: per end-to-end metric, both medians and quartiles,
the share of pairs the change wins and the verdict.  This is the
measuring procedure of the choosing-metrics guide, section 8.  The exit
code is the compare's, or 1 when a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

SIDES = ("parent", "change")


def run_order(pairs: int) -> List[Tuple[int, str]]:
    """``(pair, side)`` in the order the runs happen."""
    order = []
    for pair in range(pairs):
        first, second = SIDES if pair % 2 == 0 else SIDES[::-1]
        order += [(pair, first), (pair, second)]
    return order


def bench_command(checkout: str, workload: str, seed: int, out: str) -> List[str]:
    return [sys.executable, os.path.join(checkout, "bench", "run.py"),
            "--workload", workload, "--runs", "1", "--seed", str(seed), "--out", out]


def merge(files: Sequence[str]) -> Dict:
    """One ``--out`` document holding the runs of ``files`` in order."""
    merged: Dict = {}
    for path in files:
        with open(path) as fh:
            doc = json.load(fh)
        if not merged:
            merged = doc
            continue
        for name, summary in doc["workloads"].items():
            into = merged["workloads"][name]
            into["runs"] += summary["runs"]
            into["problems"] += summary["problems"]
            into["attempted"] += summary["attempted"]
            into["failed"] += summary["failed"]
    for summary in merged["workloads"].values():
        attempted = summary["attempted"]
        summary["failed_frac"] = summary["failed"] / attempted if attempted else 0.0
    return merged


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one bench/run.py workload")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="bench/run.py --seed (default 1)")
    parser.add_argument("--dir", help="where the run and merged files go "
                                      "(default: a fresh temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    out_dir = args.dir or tempfile.mkdtemp(prefix="paired-bench-")
    os.makedirs(out_dir, exist_ok=True)
    files: Dict[str, List[str]] = {side: [] for side in SIDES}
    for pair, side in run_order(args.pairs):
        out = os.path.join(out_dir, f"{side}-{pair}.json")
        print(f"pair {pair + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
        done = subprocess.run(bench_command(checkouts[side], args.workload, args.seed, out),
                              cwd=checkouts[side], stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"{side} run {pair} exited {done.returncode}", file=sys.stderr)
            return 1
        files[side].append(out)
    merged = {}
    for side in SIDES:
        merged[side] = os.path.join(out_dir, f"{side.upper()}.json")
        with open(merged[side], "w") as fh:
            json.dump(merge(files[side]), fh, indent=1)
    print(f"merged runs: {merged['parent']} {merged['change']}")
    compare = os.path.join(checkouts["parent"], "bench", "compare.py")
    return subprocess.run([sys.executable, compare, merged["parent"], merged["change"]],
                          cwd=checkouts["parent"]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
