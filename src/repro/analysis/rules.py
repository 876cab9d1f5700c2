"""Repo-specific lint rules: the determinism/hazard checks.

Each rule is a :class:`~repro.analysis.framework.Rule` registered with
the framework; ``scripts/lint.py src tests`` runs them all and CI gates
on a clean result.  See ``docs/static-analysis.md`` for the rationale
and the suppression grammar.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, List, Optional, Set

from .framework import Rule, SourceModule, register_rule

__all__ = [
    "WallClockRule",
    "UnseededRandomRule",
    "DroppedEventRule",
    "BareSwallowRule",
    "AllExportSyncRule",
    "EnvironReadRule",
    "BareCounterRule",
]


# -- wall-clock ------------------------------------------------------------
#: host-clock reads that make a simulated run depend on real time
_WALL_CLOCK_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.sleep",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: the one sanctioned wall-clock site: the harness timing shim
_WALL_CLOCK_ALLOWED_SUFFIXES = ("repro/harness/timing.py",)


@register_rule
class WallClockRule(Rule):
    """Ban host-clock reads in simulation code.

    Simulated components must take time exclusively from ``env.now``;
    a ``time.time()``/``time.sleep()``/``datetime.now()`` call couples a
    run to the host and breaks bit-for-bit reproducibility.  The harness
    may legitimately measure how long regeneration takes in *real*
    seconds — but only through :mod:`repro.harness.timing`, the explicit
    allowlisted shim.
    """

    name = "wall-clock"
    description = "host-clock call in simulation code"
    src_only = True

    def applies(self, module: SourceModule) -> bool:
        if not super().applies(module):
            return False
        normalized = module.path.replace(os.sep, "/")
        return not normalized.endswith(_WALL_CLOCK_ALLOWED_SUFFIXES)

    def visitors(self):
        return {ast.Call: self._call}

    def _call(self, node: ast.Call, module: SourceModule, report) -> None:
        origin = module.resolve(node.func)
        if origin in _WALL_CLOCK_BANNED:
            report(
                node,
                f"{origin}() reads the host clock inside simulation code; "
                "use the simulated clock (env.now) or, for harness-side "
                "wall timing, the explicit repro.harness.timing shim",
            )


# -- unseeded-random -------------------------------------------------------
#: module-level stdlib ``random`` attributes that are NOT hidden-global
#: draws (constructing an owned/seeded generator is exactly the fix)
_RANDOM_ALLOWED = frozenset({"random.Random", "random.SystemRandom"})

#: legacy numpy global-state entry points stay banned; seeded construction
#: through the Generator API is the sanctioned route
_NUMPY_ALLOWED = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
    }
)


@register_rule
class UnseededRandomRule(Rule):
    """Ban draws from the hidden module-level RNG state.

    ``random.random()``/``np.random.rand()`` share one process-global
    generator: any import-order or test-order change silently reshuffles
    every subsequent draw.  Deterministic experiments own their
    generators — ``random.Random(seed)`` / ``np.random.default_rng(seed)``
    — so a run's randomness is a function of its declared seed alone.
    """

    name = "unseeded-random"
    description = "module-level RNG call instead of a seeded instance"

    def visitors(self):
        return {ast.Call: self._call}

    def _call(self, node: ast.Call, module: SourceModule, report) -> None:
        origin = module.resolve(node.func)
        if origin is None:
            return
        if origin.startswith("random.") and origin not in _RANDOM_ALLOWED:
            report(
                node,
                f"{origin}() draws from the shared global RNG; construct a "
                "seeded random.Random(seed) instance instead",
            )
        elif (
            origin.startswith("numpy.random.") and origin not in _NUMPY_ALLOWED
        ):
            report(
                node,
                f"{origin}() uses numpy's global RNG state; use a seeded "
                "numpy.random.default_rng(seed) generator instead",
            )


# -- dropped-event ---------------------------------------------------------
def _looks_like_env(node: ast.AST) -> bool:
    """Heuristic: does this expression name a simulation environment?"""
    if isinstance(node, ast.Name):
        return node.id == "env" or node.id.endswith("_env")
    if isinstance(node, ast.Attribute):
        return node.attr in ("env", "_env")
    return False


@register_rule
class DroppedEventRule(Rule):
    """Flag simkernel results discarded as bare expression statements —
    the discrete-event analog of an unawaited coroutine.

    * ``env.timeout(...)`` / ``env.event()`` discarded: the event is
      scheduled (or created) but the handle is gone, so nothing can ever
      wait on it; it silently pads ``env.run()``.
    * ``env.process(...)`` discarded without a ``name=`` (library sources
      only): fire-and-forget daemons are legitimate, but an anonymous
      dropped handle is indistinguishable from an accidentally lost one —
      name it so crash reports and the DebugEnvironment can attribute it.
      Tests spawn short-lived processes whose crashes already fail the
      test, so the naming requirement does not extend there.
    * ``<store>.put(...)`` discarded (library sources only): a put
      event would be scheduled although nobody will ever wait on it —
      one heap push and pop per item for nothing.  ``put_nowait`` queues
      the item and wakes the waiter without an event.  Tests may discard
      puts.
    * ``<fresh event>.succeed()/.fail()`` (receiver is itself a call,
      e.g. ``env.event().succeed()``): the triggered event is discarded
      before anyone could possibly observe it.  Triggering a *stored*
      event (``gate.succeed()``) is the normal idiom and is not flagged.
    """

    name = "dropped-event"
    description = "simkernel event/process result discarded"

    def visitors(self):
        return {ast.Expr: self._expr}

    def _expr(self, node: ast.Expr, module: SourceModule, report) -> None:
        call = node.value
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
            return
        attr = call.func.attr
        receiver = call.func.value
        if attr in ("timeout", "event") and _looks_like_env(receiver):
            report(
                node,
                f"result of .{attr}(...) is discarded; nothing can ever wait "
                "on this event — bind it (or yield it from a process)",
            )
        elif attr == "process" and _looks_like_env(receiver):
            if module.is_src and not any(kw.arg == "name" for kw in call.keywords):
                report(
                    node,
                    "fire-and-forget process without a name= is untraceable "
                    "when it crashes; bind the Process or pass name=...",
                )
        elif attr == "put" and module.is_src:
            report(
                node,
                "result of .put(...) is discarded; the put event is scheduled "
                "for nobody — use .put_nowait(...)",
            )
        elif attr in ("succeed", "fail") and isinstance(receiver, ast.Call):
            report(
                node,
                f"event is created and .{attr}()-ed in one discarded "
                "expression; no waiter can ever observe it — bind the event "
                "first",
            )


# -- bare-swallow ----------------------------------------------------------
_BROAD_EXCEPTIONS = ("Exception", "BaseException")


def _is_broad_handler(node: ast.ExceptHandler) -> Optional[str]:
    """The broad exception name this handler catches, or None."""
    if node.type is None:
        return "<bare except>"
    if isinstance(node.type, ast.Name) and node.type.id in _BROAD_EXCEPTIONS:
        return node.type.id
    if isinstance(node.type, ast.Tuple):
        for elt in node.type.elts:
            if isinstance(elt, ast.Name) and elt.id in _BROAD_EXCEPTIONS:
                return elt.id
    return None


@register_rule
class BareSwallowRule(Rule):
    """Flag ``except Exception: pass`` — failure swallowed without trace.

    A silently-swallowed broad exception is exactly the capture-loss
    failure mode a provenance system must engineer against: the record
    is gone and nothing counted it.  Narrow the exception type, handle
    it, or justify the swallow with
    ``# lint: disable=bare-swallow(reason)`` on the ``except`` line.
    """

    name = "bare-swallow"
    description = "broad exception silently swallowed"

    def visitors(self):
        return {ast.ExceptHandler: self._handler}

    def _handler(self, node: ast.ExceptHandler, module: SourceModule, report) -> None:
        broad = _is_broad_handler(node)
        if broad is None:
            return
        if all(isinstance(stmt, ast.Pass) for stmt in node.body):
            report(
                node,
                f"except {broad}: pass swallows every failure without a "
                "trace; narrow the exception, count/log it, or justify with "
                "# lint: disable=bare-swallow(reason)",
            )


# -- all-export-sync -------------------------------------------------------
def _literal_all(tree: ast.Module) -> Optional[tuple]:
    """``(node, names)`` for a top-level literal ``__all__``, else None."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                value = stmt.value
                if isinstance(value, (ast.List, ast.Tuple)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts
                ):
                    return stmt, [e.value for e in value.elts]
                return None  # dynamically built: not statically checkable
    return None


def _top_level_bindings(tree: ast.Module) -> tuple:
    """``(all_names, def_class_names)`` bound at module top level.

    Recurses into top-level ``if``/``try`` bodies (version guards,
    optional-dependency gates) but not into function or class bodies.
    """
    bound: Set[str] = set()
    defs: Dict[str, int] = {}

    def visit(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
                defs.setdefault(stmt.name, stmt.lineno)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            bound.add(node.id)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name != "*":
                        bound.add(alias.asname or alias.name)
            elif isinstance(stmt, ast.If):
                visit(stmt.body)
                visit(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body)
                visit(stmt.orelse)
                visit(stmt.finalbody)
                for handler in stmt.handlers:
                    visit(handler.body)
            elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                visit(stmt.body)

    visit(tree.body)
    return bound, defs


@register_rule
class AllExportSyncRule(Rule):
    """Keep ``__all__`` and the public surface in sync.

    The transport-conformance suites pin the public API through
    ``__all__``; an exported name that does not exist is a latent
    ``from x import *`` crash, and a public top-level def/class missing
    from ``__all__`` is surface the conformance pin silently does not
    cover.  Modules without a literal ``__all__`` are skipped.
    """

    name = "all-export-sync"
    description = "__all__ out of sync with the module surface"
    src_only = True

    def check_module(self, module: SourceModule, report) -> None:
        found = _literal_all(module.tree)
        if found is None:
            return
        all_node, exported = found
        bound, defs = _top_level_bindings(module.tree)

        seen: Set[str] = set()
        for name in exported:
            if name in seen:
                report(all_node, f"__all__ lists {name!r} twice")
            seen.add(name)
            if name not in bound:
                report(
                    all_node,
                    f"__all__ exports {name!r} but the module never binds it "
                    "(latent `from ... import *` crash)",
                )

        for name, lineno in sorted(defs.items(), key=lambda kv: kv[1]):
            if not name.startswith("_") and name not in seen:
                report(
                    lineno,
                    f"public {name!r} is defined but missing from __all__; "
                    "export it or rename it with a leading underscore",
                )


# -- environ-read ----------------------------------------------------------
#: the process environment, read through ``os``
_ENVIRON = frozenset({"os.environ", "os.environb", "os.getenv", "os.getenvb"})


@register_rule
class EnvironReadRule(Rule):
    """Ban process-environment reads in library code.

    A default taken from ``os.environ`` makes a run depend on the shell
    that started it, not on its arguments and seed, so a failure cannot
    be replayed from them.  Take the value as an argument; a read that
    does not change what a run is carries an audited suppression.
    """

    name = "environ-read"
    description = "process environment read in library code"
    src_only = True

    def visitors(self):
        return {ast.Attribute: self._node, ast.Name: self._node}

    def _node(self, node: ast.AST, module: SourceModule, report) -> None:
        origin = module.resolve(node)
        if origin in _ENVIRON:
            report(
                node,
                f"{origin} makes a run depend on the process environment; "
                "take the value as an argument",
            )


# -- bare-counter ------------------------------------------------------------
#: the simkernel counter class, by every name it is exported under
_COUNTER = frozenset({"repro.simkernel.Counter", "repro.simkernel.monitor.Counter"})

#: the registry that builds every counter
_COUNTER_HOME = "repro/simkernel/monitor.py"


@register_rule
class BareCounterRule(Rule):
    """Ban counters built outside the run's registry.

    A simkernel ``Counter`` built by hand is a count only its owner can find:
    it is missing from ``env.metrics.snapshot()``, the one record of
    what a run did.  Take the handle from
    ``env.metrics.counter(component, name, **labels)``; a component with
    no environment takes its owner's registry.  ``collections.Counter``
    is a different class and never flagged.
    """

    name = "bare-counter"
    description = "simkernel Counter built outside the metrics registry"
    src_only = True

    def applies(self, module: SourceModule) -> bool:
        if not super().applies(module):
            return False
        return not module.path.replace(os.sep, "/").endswith(_COUNTER_HOME)

    def visitors(self):
        return {ast.Call: self._call}

    def _call(self, node: ast.Call, module: SourceModule, report) -> None:
        if module.resolve(node.func) in _COUNTER:
            report(
                node,
                "Counter built outside the run's registry; take it from "
                "env.metrics.counter(component, name, **labels)",
            )
