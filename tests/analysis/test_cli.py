"""scripts/lint.py end-to-end: exit codes and report formats."""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
LINT = os.path.join(REPO_ROOT, "scripts", "lint.py")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )


def test_clean_file_exits_zero(tmp_path):
    clean = tmp_path / "src" / "repro" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("x = 1\n")
    proc = run_cli(str(clean))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violation(s)" in proc.stdout


def test_violations_exit_one_with_text_report(tmp_path):
    dirty = tmp_path / "src" / "repro" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import time\ntime.time()\n")
    proc = run_cli(str(dirty))
    assert proc.returncode == 1
    assert "wall-clock" in proc.stdout


def test_json_format_is_machine_readable(tmp_path):
    dirty = tmp_path / "src" / "repro" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import random\nrandom.random()\n")
    proc = run_cli(str(dirty), "--format=json")
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    assert payload["violations"][0]["rule"] == "unseeded-random"


def test_rules_subset_limits_the_run(tmp_path):
    dirty = tmp_path / "src" / "repro" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import time\ntime.time()\n")
    proc = run_cli(str(dirty), "--rules", "bare-swallow")
    assert proc.returncode == 0  # wall-clock not selected


def test_list_rules_names_every_check():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for name in ("wall-clock", "unseeded-random", "dropped-event",
                 "bare-swallow", "all-export-sync", "environ-read",
                 "bare-counter"):
        assert name in proc.stdout


def test_unknown_rule_is_a_usage_error():
    proc = run_cli("--rules", "no-such-rule", "src")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_missing_path_is_a_usage_error():
    proc = run_cli("definitely/not/a/path")
    assert proc.returncode == 2
