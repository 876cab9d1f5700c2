"""repro-lint: a small AST checker framework for reproducibility hazards.

Every acceptance claim this repository makes rests on seeded,
deterministic discrete-event runs; a stray wall-clock read or an
unseeded RNG quietly turns a deterministic acceptance test flaky.  This
framework lets repo-specific rules (see :mod:`repro.analysis.rules`)
express those hazards as AST checks that run in one pass per file.

Architecture
------------
* :class:`Rule` subclasses register themselves with :func:`register_rule`
  and contribute per-node-type visitors (``visitors()``) and/or a
  whole-module pass (``check_module()``).
* :class:`SourceModule` wraps one parsed file: source, AST, an
  import-alias map for resolving dotted call origins, and the parsed
  suppression comments.
* :func:`lint_source` runs the applicable rules over one module and
  applies the suppression/audit pipeline; :func:`lint_paths` walks
  directories and aggregates.

Suppression grammar
-------------------
A violation is suppressed by a comment *on the reported line*::

    except Exception:  # lint: disable=bare-swallow(wire bytes are untrusted)

or for a whole file by a standalone comment anywhere in it::

    # lint: disable-file=wall-clock(this module IS the timing shim)

The parenthesised reason is mandatory: a suppression without one is
itself reported (``bad-suppression``), as is a suppression naming an
unknown rule or one that matches no violation (``unused-suppression``) —
so the tree can never accumulate unexplained or stale opt-outs.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Violation",
    "Suppression",
    "SourceModule",
    "Rule",
    "register_rule",
    "all_rules",
    "get_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
    "BAD_SUPPRESSION",
    "UNUSED_SUPPRESSION",
    "PARSE_ERROR",
]

#: framework-level pseudo-rules (not registered, never suppressible)
BAD_SUPPRESSION = "bad-suppression"
UNUSED_SUPPRESSION = "unused-suppression"
PARSE_ERROR = "parse-error"


@dataclass(frozen=True, order=True)
class Violation:
    """One reported lint finding, sortable into file/line order."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass
class Suppression:
    """A parsed ``# lint: disable[-file]=rule(reason)`` comment."""

    rule: str
    reason: str
    line: int
    file_level: bool
    used: bool = False


_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(?P<scope>disable(?:-file)?)\s*=\s*"
    r"(?P<rule>[A-Za-z0-9_-]+)\s*(?:\((?P<reason>.*)\))?"
)


def _parse_suppressions(
    source: str, path: str
) -> Tuple[List[Suppression], List[Violation]]:
    """Extract suppression comments via tokenize (never fooled by strings)."""
    suppressions: List[Suppression] = []
    violations: List[Violation] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []  # the AST parse will report the real error
    for tok in comments:
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        line = tok.start[0]
        reason = (match.group("reason") or "").strip()
        if not reason:
            violations.append(
                Violation(
                    path, line, tok.start[1], BAD_SUPPRESSION,
                    f"suppression of {match.group('rule')!r} carries no reason; "
                    "write # lint: disable=<rule>(why this is safe)",
                )
            )
            continue
        suppressions.append(
            Suppression(
                rule=match.group("rule"),
                reason=reason,
                line=line,
                file_level=match.group("scope") == "disable-file",
            )
        )
    return suppressions, violations


def _collect_imports(tree: ast.Module, package: List[str]) -> Dict[str, str]:
    """Map local names to their dotted import origin.

    ``import time`` → ``{"time": "time"}``; ``import numpy as np`` →
    ``{"np": "numpy"}``; ``from time import sleep as zzz`` →
    ``{"zzz": "time.sleep"}``.  A relative import resolves against
    ``package`` (``["repro", "net"]`` for ``repro/net/link.py``), so
    ``from ..simkernel import Counter`` there →
    ``{"Counter": "repro.simkernel.Counter"}``; outside a ``repro``
    package it is skipped.  Only top-of-tree imports matter for the
    determinism rules, but nested imports (inside defs) are collected
    too — a wall-clock call is a hazard wherever its import lives.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if not package or node.level > len(package):
                    continue
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{module}.{alias.name}"
    return imports


class SourceModule:
    """One parsed source file plus the metadata rules need."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        parts = path.replace(os.sep, "/").split("/")
        #: the package a relative import starts from: the directories from
        #: the last ``repro`` on (``[]`` outside a repro package)
        package: List[str] = []
        if "repro" in parts:
            package = parts[len(parts) - 1 - parts[::-1].index("repro"):-1]
        self.imports = _collect_imports(self.tree, package)
        self.suppressions, self.suppression_errors = _parse_suppressions(source, path)
        #: True for library sources (under a ``repro`` package directory,
        #: not under ``tests``): some rules only police the library.
        self.is_src = "repro" in parts and "tests" not in parts

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain via the import map.

        ``time.sleep`` (after ``import time``) → ``"time.sleep"``;
        unresolvable expressions (locals, calls) → ``None``.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`name`/:attr:`description`, register with
    :func:`register_rule`, and implement ``visitors()`` (per-node-type
    handlers, dispatched in a single AST walk shared by all rules)
    and/or ``check_module()`` (whole-module checks).
    """

    name: str = ""
    description: str = ""
    #: restrict the rule to library sources (``SourceModule.is_src``)
    src_only: bool = False

    def applies(self, module: SourceModule) -> bool:
        return module.is_src or not self.src_only

    def visitors(self) -> Dict[Type[ast.AST], Callable]:
        """Map node types to ``handler(node, module, report)`` callables."""
        return {}

    def check_module(self, module: SourceModule, report: Callable) -> None:
        """Whole-module pass (``report(node_or_line, message)``)."""


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its name."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"{cls.__name__} has no rule name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return cls


def all_rules() -> Dict[str, Rule]:
    """All registered rules by name (rules module import is implicit)."""
    from . import rules as _rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def get_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    registry = all_rules()
    if names is None:
        return list(registry.values())
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(registry))}"
        )
    return [registry[n] for n in names]


def _run_rules(module: SourceModule, rules: Sequence[Rule]) -> List[Violation]:
    violations: List[Violation] = []

    def reporter_for(rule: Rule) -> Callable:
        def report(node, message: str) -> None:
            line = getattr(node, "lineno", node if isinstance(node, int) else 1)
            col = getattr(node, "col_offset", 0)
            violations.append(Violation(module.path, line, col, rule.name, message))

        return report

    dispatch: Dict[type, List[Tuple[Callable, Callable]]] = {}
    module_passes: List[Tuple[Rule, Callable]] = []
    for rule in rules:
        if not rule.applies(module):
            continue
        report = reporter_for(rule)
        for node_type, handler in rule.visitors().items():
            dispatch.setdefault(node_type, []).append((handler, report))
        module_passes.append((rule, report))

    if dispatch:
        for node in ast.walk(module.tree):
            for handler, report in dispatch.get(type(node), ()):
                handler(node, module, report)
    for rule, report in module_passes:
        rule.check_module(module, report)
    return violations


def _apply_suppressions(
    module: SourceModule, violations: List[Violation]
) -> List[Violation]:
    known = set(all_rules())
    result: List[Violation] = list(module.suppression_errors)
    valid: List[Suppression] = []
    for supp in module.suppressions:
        if supp.rule not in known:
            result.append(
                Violation(
                    module.path, supp.line, 0, BAD_SUPPRESSION,
                    f"suppression names unknown rule {supp.rule!r}; "
                    f"available: {', '.join(sorted(known))}",
                )
            )
        else:
            valid.append(supp)

    for violation in violations:
        suppressed = False
        for supp in valid:
            if supp.rule != violation.rule:
                continue
            if supp.file_level or supp.line == violation.line:
                supp.used = True
                suppressed = True
        if not suppressed:
            result.append(violation)

    for supp in valid:
        if not supp.used:
            result.append(
                Violation(
                    module.path, supp.line, 0, UNUSED_SUPPRESSION,
                    f"suppression of {supp.rule!r} matches no violation; "
                    "delete it (stale opt-outs hide future regressions)",
                )
            )
    return sorted(result)


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one in-memory module; the unit used by tests and fixtures."""
    if rules is None:
        rules = get_rules()
    try:
        module = SourceModule(path, source)
    except SyntaxError as exc:
        return [
            Violation(
                path, exc.lineno or 1, (exc.offset or 1) - 1, PARSE_ERROR,
                f"could not parse: {exc.msg}",
            )
        ]
    return _apply_suppressions(module, _run_rules(module, rules))


def lint_file(path: str, rules: Optional[Sequence[Rule]] = None) -> List[Violation]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path, rules)


def _iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> Tuple[List[Violation], int]:
    """Lint every ``*.py`` under ``paths``; returns (violations, n_files)."""
    if rules is None:
        rules = get_rules()
    violations: List[Violation] = []
    count = 0
    for filename in _iter_python_files(paths):
        count += 1
        violations.extend(lint_file(filename, rules))
    return sorted(violations), count


# -- reporters -------------------------------------------------------------
def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    lines = [v.format() for v in violations]
    dirty = len({v.path for v in violations})
    lines.append(
        f"{len(violations)} violation(s) in {dirty} file(s) "
        f"({files_checked} checked)"
    )
    return "\n".join(lines)


def render_json(violations: Sequence[Violation], files_checked: int) -> str:
    return json.dumps(
        {
            "violations": [v.to_dict() for v in violations],
            "files_checked": files_checked,
            "ok": not violations,
        },
        indent=2,
    )
