"""Command-line harness: regenerate any paper table or figure.

Usage::

    python -m repro.harness all
    python -m repro.harness table7 fig6a --reps 5
    python -m repro.harness table9 --broker-shards 4
    python -m repro.harness all --write-experiments EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional

from .experiments import ExperimentSetup
from .figures import ALL_FIGURES, figure6_runs
from .tables import ALL_TABLES, TableResult
from .timing import WallClockTimer

__all__ = ["main", "run_targets", "write_experiments_md", "ALL_TARGETS"]

ALL_TARGETS = list(ALL_TABLES) + list(ALL_FIGURES)


def _flag_type(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """``parse`` as an argparse ``type``: a rejected value exits with
    status 2 and a message naming the flag."""
    def convert(raw: str) -> Any:
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _repetitions(raw: str) -> int:
    """``--reps``: a count of at least one."""
    value = int(raw)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def run_targets(targets: List[str], repetitions: Optional[int] = None,
                base: ExperimentSetup = ExperimentSetup()) -> Dict[str, TableResult]:
    """Run the named targets; 'all' expands to every table and figure.
    Every table and figure derives its grid from ``base``."""
    if "all" in targets:
        targets = ALL_TARGETS
    unknown = [t for t in targets if t not in ALL_TARGETS]
    if unknown:
        raise SystemExit(f"unknown targets {unknown}; available: all, {', '.join(ALL_TARGETS)}")

    results: Dict[str, TableResult] = {}
    fig_targets = [t for t in targets if t in ALL_FIGURES]
    shared_runs = figure6_runs(repetitions, base=base) if fig_targets else None
    for target in targets:
        with WallClockTimer() as timer:
            if target in ALL_TABLES:
                result = ALL_TABLES[target](repetitions, base=base)
            else:
                result = ALL_FIGURES[target](shared_runs, base=base)
        results[target] = result
        print(result.text)
        print(f"[{target}] {result.summary()} ({timer.elapsed:.1f}s)\n")
    return results


def write_experiments_md(results: Dict[str, TableResult], path: str) -> None:
    """Append a machine-generated results section to EXPERIMENTS.md."""
    lines = [
        "",
        "## Harness output (machine generated)",
        "",
        "Regenerate with `python -m repro.harness all --write-experiments EXPERIMENTS.md`.",
        "",
    ]
    for name, result in results.items():
        lines.append(f"### {result.title}")
        lines.append("")
        lines.append("```text")
        lines.append(result.text.strip())
        lines.append("```")
        lines.append("")
        lines.append(f"Shape checks: **{result.summary()}**")
        lines.append("")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the ProvLight paper's tables and figures.",
    )
    parser.add_argument(
        "targets", nargs="*", default=["all"],
        help=f"any of: all, {', '.join(ALL_TARGETS)} (default: all)",
    )
    parser.add_argument("--reps", type=_flag_type(_repetitions), default=None,
                        help="repetitions per experiment (default: paper's 10)")
    # one flag per ExperimentSetup knob, generated from the field metadata
    knobs = [knob for knob in fields(ExperimentSetup) if "parse" in knob.metadata]
    for knob in knobs:
        options = {k: v for k, v in knob.metadata.items() if k != "parse"}
        parser.add_argument("--" + knob.name.replace("_", "-"),
                            type=_flag_type(knob.metadata["parse"]), **options)
    parser.add_argument("--write-experiments", metavar="PATH", default=None,
                        help="append rendered results to this markdown file")
    args = parser.parse_args(argv)

    given = {knob.name: getattr(args, knob.name) for knob in knobs
             if getattr(args, knob.name) is not None}
    try:
        base = ExperimentSetup(**given)  # cross-field checks, e.g. pool bounds
    except ValueError as exc:
        parser.error(str(exc))
    results = run_targets(args.targets or ["all"], args.reps, base)
    if args.write_experiments:
        write_experiments_md(results, args.write_experiments)
        print(f"appended results to {args.write_experiments}")
    failed = [name for name, r in results.items() if not r.ok]
    if failed:
        print(f"SHAPE CHECK FAILURES in: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all shape checks passed")
    return 0
