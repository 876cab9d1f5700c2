"""scripts/wall_profile.py: SIGPROF shares of a shrunk benchmark workload."""

import importlib.util
import os
import signal
from collections import Counter

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_script():
    path = os.path.join(REPO_ROOT, "scripts", "wall_profile.py")
    spec = importlib.util.spec_from_file_location("wall_profile", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_samples_land_in_repro_functions_and_the_timer_is_removed():
    wall_profile = _load_script()
    handler = signal.getsignal(signal.SIGPROF)
    workload = wall_profile.WORKLOADS["fanin-64"].shrunk()
    # a shrunk run lasts only a few ticks; a floor of 200 samples, of
    # which about a quarter land in the codec, makes a miss negligible
    total, samples = wall_profile.sample_run(workload, seed=1, min_samples=200)
    assert total >= 200
    assert signal.getsignal(signal.SIGPROF) == handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert total == sum(samples.values()) > 0
    modules = {module for module, _function in samples}
    assert all(m == wall_profile.OUTSIDE or m.startswith("repro.") for m in modules)
    assert "repro.core.serialization" in modules


def test_module_of_names_only_program_files():
    wall_profile = _load_script()
    src = os.path.join(REPO_ROOT, "src", "repro")
    assert wall_profile.module_of(os.path.join(src, "core", "serialization.py")) == (
        "repro.core.serialization"
    )
    assert wall_profile.module_of(os.path.join(src, "mqttsn", "__init__.py")) == "repro.mqttsn"
    assert wall_profile.module_of(os.__file__) is None


def test_report_lists_every_module_and_the_top_functions(monkeypatch, capsys):
    wall_profile = _load_script()
    samples = Counter({("repro.a", f"f{i}"): 10 - i for i in range(10)})
    samples[("repro.b", "g")] = 5
    total = sum(samples.values())
    lines = wall_profile.report(total, samples, top=3)
    assert lines[0] == f"{total} samples"
    assert lines[1] == "modules:" and lines[4] == "functions:"
    assert lines[2].endswith("repro.a") and lines[3].endswith("repro.b")
    assert len(lines) == 5 + 3
    assert len(wall_profile.report(total, samples, top=0)) == 5 + len(samples)
    assert wall_profile.report(0, Counter()) == ["0 samples"]

    # the command line reaches report(); sample_run is stubbed out
    monkeypatch.setattr(wall_profile, "sample_run",
                        lambda workload, seed: (total, samples))
    assert wall_profile.main(["fanin-64", "--top", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == wall_profile.report(total, samples, 0)
