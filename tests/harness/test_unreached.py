"""Smoke test of ``scripts/unreached.py``: one tiny entry point over a
fixture package with one function it never calls."""

import importlib.util
import os
import shlex
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_script(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "unreached", os.path.join(ROOT, "scripts", "unreached.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "unreached", module)  # for its dataclass
    spec.loader.exec_module(module)
    return module


FIXTURE = '''\
def used():
    def inner():
        return 1
    return inner()


@staticmethod
def unused():
    def nested():
        return 2
    return nested()
'''


def test_lists_what_the_entry_never_calls(tmp_path, capsys, monkeypatch):
    unreached = _load_script(monkeypatch)
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    (package / "idle.py").write_text("def never():\n    return 3\n")
    entry = [sys.executable, "-c", "import fixture.mod; fixture.mod.used()"]

    code = unreached.main(["--root", str(tmp_path)], str(package), [(entry, None)])
    out = capsys.readouterr().out.splitlines()
    # the unreached function counts once, its decorator and nested def with it
    assert "mod.py:7 unused 5 lines" in out
    assert "idle.py:1 never 2 lines" in out
    assert not any(" used " in line or "inner" in line or "nested" in line for line in out)
    assert out[out.index("modules with no function reached:") + 1:-1] == ["  idle.py"]
    assert out[-1] == "unreached: 7 of 11 function lines in 2 functions (0 lines kept)"
    assert code == 1  # a whole module outside the keep-list is unreached


def test_a_failing_entry_fails_the_run(tmp_path, capsys, monkeypatch):
    unreached = _load_script(monkeypatch)
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def f():\n    return 1\n")
    entry = [sys.executable, "-c", "import fixture; fixture.f(); raise SystemExit(3)"]

    assert unreached.main(["--root", str(tmp_path)], str(package), [(entry, None)]) == 1
    out = capsys.readouterr().out
    assert "unreached: 0 of 2 function lines in 0 functions" in out
    assert f"entry failed: {shlex.join(entry)}" in out


def test_a_kept_module_does_not_fail_the_run(tmp_path, capsys, monkeypatch):
    unreached = _load_script(monkeypatch)
    monkeypatch.setattr(unreached, "KEEP", {"idle.py": "a fixture's reason"})
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def f():\n    return 1\n")
    (package / "idle.py").write_text("def never():\n    return 3\n")
    entry = [sys.executable, "-c", "import fixture; fixture.f()"]

    code = unreached.main(["--root", str(tmp_path)], str(package), [(entry, None)])
    out = capsys.readouterr().out.splitlines()
    assert "idle.py:1 never 2 lines  [kept: a fixture's reason]" in out
    assert "  idle.py  [kept: a fixture's reason]" in out
    assert out[-1] == "unreached: 2 of 4 function lines in 1 functions (2 lines kept)"
    assert code == 0


def test_the_subprocesses_of_an_entry_are_hooked_too(tmp_path, capsys, monkeypatch):
    unreached = _load_script(monkeypatch)
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def f():\n    return 1\n")
    child = "import fixture; fixture.f()"
    entry = [sys.executable, "-c",
             f"import subprocess, sys; subprocess.run([sys.executable, '-c', {child!r}], "
             f"check=True)"]

    code = unreached.main(["--root", str(tmp_path)], str(package), [(entry, None)])
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "unreached: 0 of 2 function lines in 0 functions (0 lines kept)"
    assert code == 0


def test_entries_with_the_same_process_id_keep_both_call_sets(tmp_path, capsys, monkeypatch):
    """Two interpreters of one session may get the same process id; the
    second one's calls must not replace the first one's."""
    unreached = _load_script(monkeypatch)
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def f():\n    return 1\n\n\ndef g():\n    return 2\n")
    entries = [([sys.executable, "-c", f"import os, fixture; fixture.{name}(); "
                 "os.getpid = lambda: 42"], None) for name in ("f", "g")]

    code = unreached.main(["--root", str(tmp_path)], str(package), entries)
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "unreached: 0 of 4 function lines in 0 functions (0 lines kept)"
    assert code == 0


def test_importing_a_module_reaches_none_of_its_functions(tmp_path, capsys, monkeypatch):
    unreached = _load_script(monkeypatch)
    package = tmp_path / "src" / "fixture"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("def f():\n    return 1\n")

    code = unreached.main(["--root", str(tmp_path)], str(package),
                          [([sys.executable, "-c", "import fixture"], None)])
    out = capsys.readouterr().out.splitlines()
    assert "__init__.py:1 f 2 lines" in out
    assert code == 1
