"""repro-lint: static analysis for reproducibility hazards.

Layer 1 of the two-layer correctness tooling (layer 2 is the runtime
:class:`~repro.simkernel.DebugEnvironment`): an AST checker framework
plus repo-specific rules that enforce the paper's controlled-experiment
methodology — no wall-clock reads, no hidden-global RNG draws, no
dropped simkernel event handles, no silently-swallowed failures, no
process-environment reads in library code, and an ``__all__`` that
matches the public surface.

Run it via ``python scripts/lint.py src tests``; CI gates on the result.
See ``docs/static-analysis.md`` for the rule catalog and suppression
grammar.
"""

from .framework import (
    BAD_SUPPRESSION,
    PARSE_ERROR,
    UNUSED_SUPPRESSION,
    Rule,
    SourceModule,
    Suppression,
    Violation,
    all_rules,
    get_rules,
    lint_file,
    lint_paths,
    lint_source,
    register_rule,
    render_json,
    render_text,
)
from .rules import (
    AllExportSyncRule,
    BareSwallowRule,
    DroppedEventRule,
    EnvironReadRule,
    UnseededRandomRule,
    WallClockRule,
)

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
    "WallClockRule",
    "UnseededRandomRule",
    "DroppedEventRule",
    "BareSwallowRule",
    "AllExportSyncRule",
    "EnvironReadRule",
]
