"""Share of raw wall time per ``repro`` module and function on one benchmark workload.

    PYTHONPATH=src python scripts/wall_profile.py WORKLOAD [--seed S] [--top N]

Runs ``WORKLOAD`` (a name from ``bench/workloads.py``) on seeds
``S..S+k-1`` through ``run_capture_experiment``, as the benchmark does,
while a ``SIGPROF`` interval timer samples the interpreter every
:data:`INTERVAL_S` of process CPU time.  Each sample goes to
the innermost frame of code under ``src/repro``: time in C code (zlib,
struct, dict methods) and in Python code outside the program (the
standard library, numpy) counts for the ``repro`` function that called it.
A sample with no ``repro`` frame on the stack counts as ``<outside>``.

Unlike ``cProfile`` (``bench/run.py --trace 1``), sampling adds no cost per
call, so a layer made of many small calls does not read larger than it
is.  The run is single-threaded and CPU-bound, so process CPU time is its
raw wall time (no reference-speed scaling).

It prints the sample count, then each module's share and the top ``N``
functions overall (``--top``, default 15; ``--top 0`` prints all).  Like
``scripts/event_mix.py`` it observes the program only from outside: it
changes no code and installs nothing but the signal handler, which it
removes when the run ends.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections import Counter
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, os.path.join(ROOT, "bench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.harness.experiments import run_capture_experiment  # noqa: E402
from workloads import WORKLOADS, Workload, experiment  # noqa: E402

__all__ = ["sample_run", "module_of", "report", "main"]

#: functions printed unless ``--top`` says otherwise
TOP = 15
OUTSIDE = "<outside>"
#: requested sampling interval, in seconds of process CPU time.  The
#: kernel's profiling tick (4 ms on common Linux configurations) is the
#: real floor; asking for less only makes sure every tick samples.
INTERVAL_S = 1e-3
#: most passes of the seeds ``sample_run`` makes to reach ``min_samples``
MAX_ROUNDS = 50
_PREFIX = os.path.join(SRC, "")


def module_of(filename: str) -> Optional[str]:
    """Dotted module name of a file under ``src/``, else None."""
    path = os.path.abspath(filename)
    if not path.startswith(_PREFIX):
        return None
    module = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
    return module.removesuffix(".__init__")


def sample_run(workload: Workload, seed: int, min_samples: int = 0) -> Tuple[int, Counter]:
    """Run ``workload`` on seeds ``seed..seed+k-1`` under the sampler;
    returns the sample count and a ``Counter`` of ``(module, function)``.

    The seeds run again, whole, until at least ``min_samples`` samples
    have landed, so a short run still gives a fixed floor of samples.
    After :data:`MAX_ROUNDS` passes it returns what it has, so a sampler
    that never fires gives a short count instead of a loop that never ends.
    """
    samples: Counter = Counter()
    modules = {}  # code object -> module name or None, memoized

    def on_sample(_signum, frame):
        while frame is not None:
            code = frame.f_code
            module = modules.get(code, False)
            if module is False:
                module = modules[code] = module_of(code.co_filename)
            if module is not None:
                samples[(module, code.co_qualname)] += 1
                return
            frame = frame.f_back
        samples[(OUTSIDE, OUTSIDE)] += 1

    setup, config = experiment(workload)
    previous = signal.signal(signal.SIGPROF, on_sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        for _round in range(MAX_ROUNDS):
            for s in range(seed, seed + workload.seeds):
                run_capture_experiment(setup, config, s)
            if sum(samples.values()) >= min_samples:
                break
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return sum(samples.values()), samples


def report(total: int, samples: Counter, top: int = TOP) -> List[str]:
    """The printed shares: every module, then at most ``top`` functions
    (all when 0)."""
    by_module: Counter = Counter()
    for (module, _function), count in samples.items():
        by_module[module] += count
    lines = [f"{total} samples"]
    if not total:
        return lines
    lines.append("modules:")
    for module, count in sorted(by_module.items(), key=lambda e: (-e[1], e[0])):
        lines.append(f"{count:>9} {100 * count / total:5.1f}%  {module}")
    lines.append("functions:")
    functions = sorted(samples.items(), key=lambda e: (-e[1], e[0]))
    for (module, function), count in functions[:top] if top else functions:
        lines.append(f"{count:>9} {100 * count / total:5.1f}%  {module}:{function}")
    return lines


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not >= 0")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed of the run (default 1)")
    parser.add_argument("--top", type=_non_negative, default=TOP,
                        help=f"functions printed, 0 for all (default {TOP})")
    args = parser.parse_args(argv)
    total, samples = sample_run(WORKLOADS[args.workload], args.seed)
    print("\n".join(report(total, samples, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
