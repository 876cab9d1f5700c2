"""scripts/paired_bench.py against stub checkouts: the run order
alternates, each side's runs merge in pair order, and the parent's
compare gets the merged files.  No real benchmark runs."""

import importlib.util
import json
import os
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: a stand-in for bench/run.py: logs its checkout, writes one run whose
#: value is its position in the log
STUB_RUN = textwrap.dedent("""
    import argparse, json, os
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--runs", "--seed", "--out"):
        parser.add_argument(flag)
    args = parser.parse_args()
    checkout = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    log = os.path.join(os.path.dirname(checkout), "order.log")
    with open(log, "a") as fh:
        fh.write(os.path.basename(checkout) + "\\n")
    with open(log) as fh:
        position = len(fh.readlines())
    run = {"wall_us_per_record": float(position), "seed": int(args.seed)}
    summary = {"workload": args.workload, "attempted": 4, "failed": 0, "failed_frac": 0.0,
               "metrics": {}, "runs": [run], "problems": []}
    with open(args.out, "w") as fh:
        json.dump({"seed": int(args.seed), "workloads": {args.workload: summary}}, fh)
""")

#: a stand-in for bench/compare.py: names its checkout and the run counts
STUB_COMPARE = textwrap.dedent("""
    import json, os, sys
    runs = [len(json.load(open(path))["workloads"]["w"]["runs"]) for path in sys.argv[1:]]
    checkout = os.path.basename(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    print("compare", checkout, *runs)
""")


def _load_script():
    path = os.path.join(REPO_ROOT, "scripts", "paired_bench.py")
    spec = importlib.util.spec_from_file_location("paired_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root, name):
    bench = root / name / "bench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(STUB_RUN)
    (bench / "compare.py").write_text(STUB_COMPARE)
    return str(root / name)


def test_runs_alternate_and_merge_in_pair_order(tmp_path, capfd):
    paired = _load_script()
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    out = tmp_path / "out"
    code = paired.main([parent, change, "--workload", "w", "--pairs", "3", "--seed", "5",
                        "--dir", str(out)])
    assert code == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert [side for _pair, side in paired.run_order(3)] == order
    merged = {side: json.loads((out / f"{side.upper()}.json").read_text())
              for side in ("parent", "change")}
    for side, positions in (("parent", [1.0, 4.0, 5.0]), ("change", [2.0, 3.0, 6.0])):
        summary = merged[side]["workloads"]["w"]
        assert [run["wall_us_per_record"] for run in summary["runs"]] == positions
        assert {run["seed"] for run in summary["runs"]} == {5}
        assert summary["attempted"] == 12 and summary["failed"] == 0
    assert "compare parent 3 3" in capfd.readouterr().out


def test_a_failed_run_stops_the_pairs(tmp_path):
    paired = _load_script()
    parent, change = _checkout(tmp_path, "parent"), _checkout(tmp_path, "change")
    with open(os.path.join(change, "bench", "run.py"), "a") as fh:
        fh.write("raise SystemExit(2)\n")
    code = paired.main([parent, change, "--workload", "w", "--pairs", "2",
                        "--dir", str(tmp_path / "out")])
    assert code == 1
    assert (tmp_path / "order.log").read_text().split() == ["parent", "change"]
