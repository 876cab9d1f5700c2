"""Command-line harness: regenerate any paper table or figure.

Usage::

    python -m repro.harness all
    python -m repro.harness table7 fig6a --reps 5
    python -m repro.harness table9 --broker-shards 4
    python -m repro.harness all --write-experiments EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Dict, List, Optional

from .experiments import ExperimentSetup, env_knobs
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


def run_targets(targets: List[str], repetitions: Optional[int] = None) -> Dict[str, TableResult]:
    """Run the named targets; 'all' expands to every table and figure."""
    if "all" in targets:
        targets = ALL_TARGETS
    unknown = [t for t in targets if t not in ALL_TARGETS]
    if unknown:
        raise SystemExit(f"unknown targets {unknown}; available: all, {', '.join(ALL_TARGETS)}")

    results: Dict[str, TableResult] = {}
    fig_targets = [t for t in targets if t in ALL_FIGURES]
    shared_runs = figure6_runs(repetitions) if fig_targets else None
    for target in targets:
        with WallClockTimer() as timer:
            if target in ALL_TABLES:
                result = ALL_TABLES[target](repetitions)
            else:
                result = ALL_FIGURES[target](shared_runs)
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
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per experiment (default: paper's 10)")
    # one flag per ExperimentSetup knob, generated from the field metadata
    knobs = env_knobs()
    for knob in knobs:
        options = {k: v for k, v in knob.metadata.items() if k not in ("env", "parse")}
        parser.add_argument("--" + knob.name.replace("_", "-"),
                            type=_flag_type(knob.metadata["parse"]), **options)
    parser.add_argument("--write-experiments", metavar="PATH", default=None,
                        help="append rendered results to this markdown file")
    args = parser.parse_args(argv)

    given = {knob.name: getattr(args, knob.name) for knob in knobs
             if getattr(args, knob.name) is not None}
    try:
        ExperimentSetup(**given)  # cross-field checks, e.g. pool bounds
    except ValueError as exc:
        parser.error(str(exc))
    # the tables build their ExperimentSetup grids internally; the
    # environment hooks retarget them all (see experiments.py).  Restore
    # them afterwards so an in-process caller (tests, notebooks) does not
    # inherit the override.
    overrides = {knob.metadata["env"]: getattr(args, knob.name) for knob in knobs}
    previous = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is not None:
                os.environ[name] = str(value)
        results = run_targets(args.targets or ["all"], repetitions=args.reps)
    finally:
        for name, value in overrides.items():
            if value is not None:
                if previous[name] is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = previous[name]
    if args.write_experiments:
        write_experiments_md(results, args.write_experiments)
        print(f"appended results to {args.write_experiments}")
    failed = [name for name, r in results.items() if not r.ok]
    if failed:
        print(f"SHAPE CHECK FAILURES in: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all shape checks passed")
    return 0
