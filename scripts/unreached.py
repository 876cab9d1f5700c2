"""List every ``src/repro`` function that no run of the program calls.

    python scripts/unreached.py [--root DIR]

Runs each entry point in a fresh interpreter with a call hook
(``sys.settrace``, 'call' events only, installed by a ``sitecustomize``
module put first on ``PYTHONPATH``, so the Python subprocesses an entry
starts are hooked too), then matches the code objects that ran against
every ``def`` under ``src/repro`` (``analysis/`` excluded: it is the
lint, which no run calls).  The entry set:

* ``python -m repro.harness all --reps 1``;
* the harness flags smoke of ``scripts/ci.sh``;
* every ``examples/*.py``;
* one shrunk run of each ``bench/`` workload (``bench/tracer.py``);
* the ``benchmarks/`` tests.

It prints one line per unreached function (outermost only: a nested
``def`` of an unreached function counts with it), the modules with no
function reached, and the totals.  A line is a source line of the
function, its decorators included.  ``KEEP`` names what stays although
no entry reaches it, and why; it is reported but not an error.  The
exit status is 1 when an entry fails or a module outside ``KEEP`` has
no function reached, else 0.  The default set takes a few minutes.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: what stays although no entry reaches it: a module path (relative to
#: the scanned package) or ``path:qualname`` -> why
KEEP = {
    "simkernel/debug.py": "the runtime hazard detector of `pytest --sim-debug`",
    "core/provdm.py": "W3C PROV mapping read back by the stored-content oracle "
                      "(ROADMAP: provenance that names its device)",
    "core/translator.py:to_prov_json": "PROV-JSON export for the stored-content "
                                       "oracle (ROADMAP: provenance that names "
                                       "its device)",
}

#: the hook every entry's interpreters import first; each writes the
#: ``(filename, first line)`` of the code objects it ran to a new file in
#: ``$UNREACHED_OUT`` (a reused process id overwrites nothing)
_SITECUSTOMIZE = '''\
import atexit, os, sys, tempfile, threading

_seen = set()


def _hook(frame, event, arg):
    code = frame.f_code
    if code.co_name != "<module>":  # a module starting with a def runs none
        _seen.add((code.co_filename, code.co_firstlineno))


def _dump():
    sys.settrace(None)
    fd, _ = tempfile.mkstemp(suffix=".calls", dir=os.environ["UNREACHED_OUT"])
    with os.fdopen(fd, "w") as out:
        for filename, line in _seen:
            out.write("%s\\t%d\\n" % (os.path.realpath(filename), line))


if os.environ.get("UNREACHED_OUT"):
    atexit.register(_dump)
    threading.settrace(_hook)
    sys.settrace(_hook)
'''


def default_entries(root: str) -> List[Tuple[List[str], Optional[str]]]:
    """``(argv, stdin)`` of each default entry point, run from ``root``."""
    py = sys.executable
    entries: List[Tuple[List[str], Optional[str]]] = [
        ([py, "-m", "repro.harness", "all", "--reps", "1"], None),
        ([py, "-m", "repro.harness", "table9", "--reps", "1", "--broker-shards", "2",
          "--broker-placement", "p2c", "--pool-min", "2", "--pool-max", "4"], None),
    ]
    for example in sorted(glob.glob(os.path.join(root, "examples", "*.py"))):
        entries.append(([py, os.path.relpath(example, root)], None))
    sys.path.insert(0, os.path.join(root, "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    for name in WORKLOADS:
        spec = {"workload": name, "seed": 1, "trace": 0, "shrunk": True}
        entries.append(([py, os.path.join("bench", "tracer.py")], json.dumps(spec)))
    # timed pytest-benchmark calls switch the hook off: run them untimed
    entries.append(([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--benchmark-disable", "benchmarks"], None))
    return entries


def run_entries(entries: Iterable[Tuple[List[str], Optional[str]]], root: str,
                src: str) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Run every entry under the hook: ``(calls, failed)``, where
    ``calls`` holds ``(realpath, first line)`` of every code object that
    ran and ``failed`` the command lines that exited non-zero."""
    calls: Set[Tuple[str, int]] = set()
    failed: List[str] = []
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        hook_dir = os.path.join(tmp, "hook")
        out_dir = os.path.join(tmp, "calls")
        os.mkdir(hook_dir)
        os.mkdir(out_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as f:
            f.write(_SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.dirname(src)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["UNREACHED_OUT"] = out_dir
        for argv, stdin in entries:
            line = shlex.join(argv)
            print(f"entry: {line}", file=sys.stderr, flush=True)
            done = subprocess.run(argv, cwd=root, env=env, input=stdin, text=True,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            if done.returncode != 0:
                failed.append(line)
                print(f"  failed ({done.returncode}): {done.stderr[-2000:]}",
                      file=sys.stderr)
        for path in glob.glob(os.path.join(out_dir, "*.calls")):
            with open(path) as f:
                for record in f:
                    filename, first = record.rstrip("\n").rsplit("\t", 1)
                    calls.add((filename, int(first)))
    return calls, failed


@dataclass
class Function:
    module: str  # path relative to the scanned package
    qualname: str
    first: int  # first line, decorators included
    def_line: int
    last: int
    parent: Optional["Function"]

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions_in(src: str) -> List[Function]:
    """Every ``def`` under ``src`` (``analysis/`` excluded), nested ones
    with their enclosing function as ``parent``."""
    found: List[Function] = []

    def visit(node: ast.AST, module: str, prefix: str, parent: Optional[Function]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                fn = Function(module, prefix + child.name, first, child.lineno,
                              child.end_lineno, parent)
                found.append(fn)
                visit(child, module, fn.qualname + ".<locals>.", fn)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".", parent)
            else:
                visit(child, module, prefix, parent)

    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        module = os.path.relpath(path, src)
        if module.split(os.sep)[0] == "analysis":
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        visit(tree, module.replace(os.sep, "/"), "", None)
    return found


def kept(fn: Function) -> Optional[str]:
    """Why ``fn`` stays unreached, or ``None``."""
    return KEEP.get(fn.module) or KEEP.get(f"{fn.module}:{fn.qualname}")


def report(src: str, calls: Set[Tuple[str, int]]) -> List[str]:
    """Print the unreached functions and totals; return the modules with
    no function reached."""
    src = os.path.realpath(src)
    functions = functions_in(src)

    def reached(fn: Function) -> bool:
        path = os.path.join(src, fn.module)
        return (path, fn.first) in calls or (path, fn.def_line) in calls

    hit = {id(fn): reached(fn) for fn in functions}
    unreached = []
    for fn in functions:
        outer, covered = fn.parent, False
        while outer is not None:
            covered = covered or not hit[id(outer)]
            outer = outer.parent
        if not hit[id(fn)] and not covered:
            unreached.append(fn)
    by_module: Dict[str, List[bool]] = {}
    for fn in functions:
        by_module.setdefault(fn.module, []).append(hit[id(fn)])
    dead_modules = sorted(m for m, hits in by_module.items() if not any(hits))
    for fn in unreached:
        why = kept(fn)
        note = f"  [kept: {why}]" if why else ""
        print(f"{fn.module}:{fn.first} {fn.qualname} {fn.lines} lines{note}")
    print("modules with no function reached:")
    for module in dead_modules:
        why = KEEP.get(module)
        print(f"  {module}" + (f"  [kept: {why}]" if why else ""))
    lines = sum(fn.lines for fn in unreached)
    kept_lines = sum(fn.lines for fn in unreached if kept(fn))
    total = sum(fn.lines for fn in functions if fn.parent is None)
    print(f"unreached: {lines} of {total} function lines in {len(unreached)} "
          f"functions ({kept_lines} lines kept)")
    return dead_modules


def main(argv: Optional[List[str]] = None, src: Optional[str] = None,
         entries: Optional[List[Tuple[List[str], Optional[str]]]] = None) -> int:
    """Run ``entries`` (default: :func:`default_entries`) and report the
    functions under ``src`` (default: ``ROOT/src/repro``) none of them calls."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=ROOT,
                        help="repository to run the entries in (default: this one)")
    root = os.path.abspath(parser.parse_args(argv).root)
    src = os.path.abspath(src or os.path.join(root, "src", "repro"))
    if entries is None:
        entries = default_entries(root)
    calls, failed = run_entries(entries, root, src)
    dead = [m for m in report(src, calls) if m not in KEEP]
    for line in failed:
        print(f"entry failed: {line}")
    return 1 if failed or dead else 0


if __name__ == "__main__":
    sys.exit(main())
