"""Framework behavior: suppressions, reporters, path walking, self-lint."""

import json
import os
import textwrap

import pytest

from repro.analysis import (
    BAD_SUPPRESSION,
    PARSE_ERROR,
    UNUSED_SUPPRESSION,
    Violation,
    all_rules,
    get_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

DIRTY = textwrap.dedent(
    """
    try:
        work()
    except Exception:
        pass
    """
)


def test_line_suppression_with_reason_silences_the_violation():
    source = DIRTY.replace(
        "except Exception:",
        "except Exception:  # lint: disable=bare-swallow(fixture says so)",
    )
    assert lint_source(source, "src/repro/m.py") == []


def test_file_level_suppression_covers_every_line():
    source = "# lint: disable-file=bare-swallow(whole fixture is a swallow test)\n" + (
        DIRTY + DIRTY.replace("work()", "other()")
    )
    assert lint_source(source, "src/repro/m.py") == []


def test_suppression_without_reason_is_itself_reported():
    source = DIRTY.replace(
        "except Exception:",
        "except Exception:  # lint: disable=bare-swallow",
    )
    out = lint_source(source, "src/repro/m.py")
    assert {v.rule for v in out} == {BAD_SUPPRESSION, "bare-swallow"}


def test_suppression_of_unknown_rule_is_reported():
    out = lint_source(
        "x = 1  # lint: disable=no-such-rule(because)\n", "src/repro/m.py"
    )
    assert [v.rule for v in out] == [BAD_SUPPRESSION]
    assert "unknown rule" in out[0].message


def test_stale_suppression_is_reported():
    out = lint_source(
        "x = 1  # lint: disable=bare-swallow(nothing to swallow here)\n",
        "src/repro/m.py",
    )
    assert [v.rule for v in out] == [UNUSED_SUPPRESSION]


def test_suppression_comment_inside_string_is_ignored():
    # tokenize-based parsing: a string literal is not a comment
    out = lint_source(
        's = "# lint: disable=bare-swallow(fake)"\n', "src/repro/m.py"
    )
    assert out == []


def test_syntax_error_becomes_parse_error_violation():
    out = lint_source("def broken(:\n", "src/repro/m.py")
    assert [v.rule for v in out] == [PARSE_ERROR]


def test_violation_format_and_ordering():
    v = Violation("a.py", 3, 7, "wall-clock", "msg")
    assert v.format() == "a.py:3:7: wall-clock: msg"
    assert sorted([Violation("b.py", 1, 0, "r", "m"), v])[0] is v


def test_get_rules_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown rule"):
        get_rules(["wall-clock", "nope"])


def test_registry_has_the_documented_rules():
    assert set(all_rules()) == {
        "wall-clock",
        "unseeded-random",
        "dropped-event",
        "bare-swallow",
        "all-export-sync",
        "environ-read",
    }


def test_render_text_summary_line():
    out = render_text([Violation("a.py", 1, 0, "r", "m")], files_checked=4)
    lines = out.splitlines()
    assert lines[0] == "a.py:1:0: r: m"
    assert lines[-1] == "1 violation(s) in 1 file(s) (4 checked)"


def test_render_json_shape():
    payload = json.loads(render_json([Violation("a.py", 1, 0, "r", "m")], 4))
    assert payload["ok"] is False
    assert payload["files_checked"] == 4
    assert payload["violations"][0]["rule"] == "r"
    assert json.loads(render_json([], 4))["ok"] is True


def test_lint_paths_walks_and_counts(tmp_path):
    pkg = tmp_path / "src" / "repro" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("x = 1\n")
    (pkg / "dirty.py").write_text("import time\ntime.time()\n")
    cache = pkg / "__pycache__"
    cache.mkdir()
    (cache / "ignored.py").write_text("import time\ntime.time()\n")
    violations, count = lint_paths([str(tmp_path)])
    assert count == 2  # __pycache__ skipped
    assert [v.rule for v in violations] == ["wall-clock"]


def test_repository_tree_lints_clean():
    """The acceptance gate itself: src and tests carry zero violations."""
    violations, count = lint_paths(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")]
    )
    assert count > 100
    assert violations == [], render_text(violations, count)
