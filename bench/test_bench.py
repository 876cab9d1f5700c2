"""Self-test of the end-to-end benchmark on shrunken copies of its workloads.

Every measured run is a subprocess, as in the benchmark itself: the
benchmark installs its own ``Environment`` subclass, which must not meet
the one ``pytest --sim-debug`` installs in this process.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import compare
import run
from workloads import WORKLOADS, experiment

ROOT = os.path.dirname(run.BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
SEED = 1


@pytest.fixture(scope="module")
def shrunk():
    """Per workload: one untraced and two traced runs of the same seed."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            name: [pool.submit(run.run_child, name, SEED, trace, True)
                   for trace in (False, True, True)]
            for name in WORKLOADS
        }
        return {name: [f.result() for f in fs] for name, fs in futures.items()}


@pytest.fixture(scope="module")
def summaries(shrunk):
    return {name: run.summarize(name, [plain], traced)
            for name, (plain, traced, _) in shrunk.items()}


def _printed(summary):
    return {line.split()[1]: line.split()[3] for line in run.lines(summary)}


def test_printed_names_and_units_match_benchmark_json(summaries):
    assert list(WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for summary in summaries.values():
        printed = _printed(summary)
        assert printed.pop(run.FAILED_FRAC[0]) == run.FAILED_FRAC[1]
        assert printed == declared
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.result(list(summaries.values())[:1], trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[key]
        }


def test_every_record_ingested_exactly_once(shrunk, summaries):
    for name, summary in summaries.items():
        assert summary["failed"] == 0 and summary["failed_frac"] == 0.0, name
        w = WORKLOADS[name].shrunk()
        captured = w.devices * (2 + 2 * w.config["number_of_tasks"]) * w.seeds
        assert [r["attempted"] for r in shrunk[name]] == [captured] * 3, name


def test_same_seed_gives_identical_sim_metrics(shrunk, summaries):
    for name, runs in shrunk.items():
        assert runs[0]["sim"] == runs[1]["sim"] == runs[2]["sim"], name
        assert summaries[name]["problems"] == []


def test_traced_counts_repeat_exactly(shrunk):
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    for name, (_, first, second) in shrunk.items():
        assert {c: first["trace"][c] for c in counts} == {
            c: second["trace"][c] for c in counts
        }, name


def test_layer_attribution(summaries):
    for name, summary in summaries.items():
        layers = {metric: m["value"] for metric, m in summary["layers"].items()}
        assert layers["trace.unattributed_share"] < 0.05, name
        assert (layers["journal.appends"] > 0) == (name == "durable-churn"), name
        assert (layers["dedup.checks"] > 0) == (name == "durable-churn"), name
        assert (layers["http.requests"] > 0) == (name == "http-fanin"), name
        assert (layers["mqttsn.publishes"] > 0) == (name != "http-fanin"), name
        assert layers["dfanalyzer.ingest_calls"] > 0, name


def test_overhead_is_the_paper_tables_measurement(shrunk):
    from repro.harness.experiments import measure_overhead

    # measure_overhead's first repetition runs seed 1
    setup, config = experiment(WORKLOADS["fanin-64"].shrunk())
    paper = measure_overhead(setup, config, repetitions=1, keep_outcomes=False)
    assert shrunk["fanin-64"][0]["sim"]["capture_overhead_pct"] == pytest.approx(
        100.0 * paper.overheads[0], rel=1e-12
    )


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fanin-64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


@pytest.mark.parametrize("b, expected", [
    ([x * 0.8 for x in BASE], "improved"),
    ([x * 1.3 for x in BASE], "regressed"),
    (list(BASE), "unchanged"),
    ([x * 1.01 for x in BASE], "unchanged"),
])
def test_compare_verdicts(b, expected):
    assert compare.verdict(BASE, b, 0.1, "lower")[0] == expected
    flipped = [2 * 100.0 - x for x in b]
    assert compare.verdict([2 * 100.0 - x for x in BASE], flipped, 0.1, "higher")[0] == expected


def test_compare_noisy_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    shifted = [x * 1.05 for x in reversed(noisy)]
    assert compare.verdict(noisy, shifted, 0.1, "lower")[0] == "unresolved"


def test_compare_exit_code(tmp_path):
    def pass_file(path, values, failed=0):
        runs = [{m["name"]: v for m in BENCHMARK["end_to_end"]} for v in values]
        path.write_text(json.dumps({"workloads": {"w": {"runs": runs, "failed": failed}}}))
        return str(path)

    a = pass_file(tmp_path / "a.json", BASE)
    assert compare.main([a, pass_file(tmp_path / "same.json", BASE)]) == 0
    assert compare.main([a, pass_file(tmp_path / "worse.json", [x * 1.3 for x in BASE])]) == 1
    assert compare.main([a, pass_file(tmp_path / "lossy.json", BASE, failed=3)]) == 1
