"""Smoke tests: every example script must run end to end.

The examples are the library's public face; these tests execute each one
in-process (same interpreter, captured stdout) and sanity-check the
narrative output.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "records in the backend" in out
    assert "FINISHED" in out
    assert "out6 derived from: in6" in out


def test_federated_learning(capsys):
    out = run_example("federated_learning.py", capsys)
    assert "final global accuracy" in out
    assert "query (i)" in out and "query (ii)" in out
    assert "accuracy=" in out
    assert "epochs=None" not in out


def test_sensor_aggregation(capsys):
    out = run_example("sensor_aggregation.py", capsys)
    assert "with ProvLight" in out and "with ProvLake" in out
    assert "rep-3 <- det-3 <- agg-3 <- clean-3 <- raw-3" in out
    # the ProvLake run stores through the HTTP collector as well
    assert "ProvLight 82, ProvLake 82" in out
    # ProvLake's overhead line must show a much larger percentage
    light_line = next(l for l in out.splitlines() if "ProvLight" in l and "overhead" in l)
    lake_line = next(l for l in out.splitlines() if "ProvLake" in l and "overhead" in l)
    light = float(light_line.split("overhead")[1].strip(" %)"))
    lake = float(lake_line.split("overhead")[1].strip(" %)"))
    assert lake > 10 * light


def test_e2clab_experiment(capsys):
    out = run_example("e2clab_experiment.py", capsys)
    assert "provenance records ingested" in out
    assert "edge-client-0" in out and "edge-camera-1" in out
    assert out.count("camera blob scores") == 2
    # 8 devices x 20 synthetic tasks, 2 cameras x 4 images x 5 imaging steps
    assert "finished tasks across all devices: 200" in out


def test_system_comparison(capsys):
    out = run_example("system_comparison.py", capsys)
    assert "provlight" in out and "provlake" in out and "dfanalyzer" in out
    assert "KB/s" in out


def test_secure_capture(capsys):
    out = run_example("secure_capture.py", capsys)
    assert "records accepted from trusted   : 4" in out
    assert "payloads rejected (bad key)     : 4" in out
    assert "['trusted']" in out
