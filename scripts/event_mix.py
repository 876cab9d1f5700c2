"""Count the simulation kernel's steps by kind on one benchmark workload.

    PYTHONPATH=src python scripts/event_mix.py WORKLOAD [--seed S] [--top N]

Runs ``WORKLOAD`` (a name from ``bench/workloads.py``) on seeds
``S..S+k-1`` through ``run_capture_experiment``, as the benchmark does,
and sorts every ``Environment.step`` into one kind:

``timer``
    a ``call_later`` timer, by the function it calls; a mailbox
    hand-off (``Mailbox._wake``) also names the consumer it wakes,
    ``Mailbox._wake -> <callback>``;
``wakeup``
    an event that resumes a process, by the process it resumes
    (digit runs in process names read ``N``) and the event's type;
``initialize`` / ``process-end``
    a process starting, or its end event, by process name;
``no-callback``
    an event nobody waits on (or one already processed), by type;
``callback``
    any other callback (conditions, grant callbacks), by its name.

It prints the total, each kind's count and share, and the top ``N``
entries within each kind (``--top``, default 8; ``--top 0`` prints
all).  Like ``bench/tracer.py`` it observes the program only from
outside: it installs an ``Environment`` subclass through
``set_default_environment_class`` and restores the previous class when
done.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from collections import Counter
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.harness.experiments import run_capture_experiment  # noqa: E402
from repro.simkernel import core  # noqa: E402
from repro.simkernel.events import Initialize, Process  # noqa: E402
from workloads import WORKLOADS, Workload, experiment  # noqa: E402

__all__ = ["count_steps", "kind_of", "main"]

#: entries printed under each kind unless ``--top`` says otherwise
TOP = 8


def _process_name(process) -> str:
    return re.sub(r"\d+", "N", process.name)


def _name(fn) -> str:
    fn = getattr(fn, "func", fn)  # a functools.partial: its function
    return getattr(fn, "__qualname__", repr(fn))


def kind_of(entry) -> Tuple[str, str]:
    """``(kind, detail)`` of the heap entry ``(time, priority, eid,
    target, args)`` an ``Environment.step`` is about to process: a
    ``call_later`` timer's target is its function and ``args`` a tuple,
    an event's target is the event and ``args`` is ``None``."""
    event, args = entry[3:]
    if args is not None:
        detail = _name(event)
        if detail == "Mailbox._wake":
            detail = f"{detail} -> {_name(args[0])}"
        return "timer", detail
    callbacks = event.callbacks
    if isinstance(event, Initialize):
        return "initialize", _process_name(callbacks[0].__self__)
    if isinstance(event, Process):
        return "process-end", _process_name(event)
    if not callbacks:
        return "no-callback", type(event).__name__
    first = callbacks[0]
    owner = getattr(first, "__self__", None)
    if isinstance(owner, Process) and first.__name__ == "_resume":
        return "wakeup", f"{_process_name(owner)} <- {type(event).__name__}"
    return "callback", getattr(first, "__qualname__", repr(first))


def count_steps(workload: Workload, seed: int) -> Tuple[int, Counter]:
    """Run ``workload`` on seeds ``seed..seed+k-1``; returns the number of
    kernel steps and a ``Counter`` of ``(kind, detail)`` over them."""
    kinds: Counter = Counter()
    total = [0]
    previous = core.default_environment_class()

    class CountingEnvironment(previous or core.Environment):
        __slots__ = ()

        def step(self):
            queue = self._queue
            if queue:
                total[0] += 1
                kinds[kind_of(queue[0])] += 1
            return super().step()

    setup, config = experiment(workload)
    core.set_default_environment_class(CountingEnvironment)
    try:
        for s in range(seed, seed + workload.seeds):
            run_capture_experiment(setup, config, s)
    finally:
        core.set_default_environment_class(previous)
    return total[0], kinds


def report(total: int, kinds: Counter, top: int = TOP) -> List[str]:
    """The printed mix: at most ``top`` entries per kind, all when 0."""
    by_kind: Counter = Counter()
    for (kind, _detail), count in kinds.items():
        by_kind[kind] += count
    lines = [f"{total} steps"]
    for kind, count in by_kind.most_common():
        lines.append(f"{count:>9} {100 * count / total:5.1f}%  {kind}")
        entries = [(c, d) for (k, d), c in kinds.items() if k == kind]
        entries.sort(key=lambda e: (-e[0], e[1]))
        for c, detail in entries[:top] if top else entries:
            lines.append(f"{c:>19} {100 * c / total:5.1f}%  {detail}")
    return lines


def _entries(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not >= 0")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed of the run (default 1)")
    parser.add_argument("--top", type=_entries, default=TOP,
                        help=f"entries printed per kind, 0 for all (default {TOP})")
    args = parser.parse_args(argv)
    total, kinds = count_steps(WORKLOADS[args.workload], args.seed)
    print("\n".join(report(total, kinds, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
