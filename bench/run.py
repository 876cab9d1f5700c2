"""End-to-end capture benchmark: runs the workloads, checks them, prints metrics.

    python bench/run.py [--workload W] [--runs N] [--seed S] [--seconds T]
                        [--trace {0,1}] [--out FILE]

Each run is a fresh single-threaded subprocess (``bench/tracer.py``) that
drives ``run_capture_experiment`` on seeds ``S..S+k-1`` of one workload.
Runs are interleaved across workloads: ``--runs`` rounds (default 5) or,
with ``--seconds``, rounds until that many seconds have passed (at least
three).  ``--trace 1`` adds one profiled run per workload and reports the
per-layer metrics.

Every metric is printed as ``workload metric value unit``; the last line is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``) with
the end-to-end metrics, or with ``--trace 1`` the per-layer metrics.
Simulated-clock metrics are deterministic and must be identical in every
run of a workload; wall-clock metrics are medians over the runs.  Each run
checks its exactly-once ledger.  If a check fails the benchmark prints
``FAIL`` and exits 1; if a run cannot run at all it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

#: end-to-end metrics: name -> (unit, clock)
END_TO_END = {
    "capture_overhead_pct": ("%", "sim"),
    "e2e_latency_p50_ms": ("sim-ms", "sim"),
    "e2e_latency_p99_ms": ("sim-ms", "sim"),
    "capture_cpu_pct": ("%", "sim"),
    "capture_mem_kb": ("KiB", "sim"),
    "wire_bytes_per_record": ("B", "sim"),
    "device_power_w": ("W", "sim"),
    "wall_us_per_record": ("us", "wall"),
    "setup_s": ("s", "wall"),
    "peak_rss_mb": ("MiB", "wall"),
}
#: failed_frac is printed but kept out of the JSON metrics: it is 0 on a
#: correct run, and the JSON reports the same ledger as ``failed``
FAILED_FRAC = ("failed_frac", "ratio")

#: per-layer metrics of a traced run: name -> unit
PER_LAYER = {
    "simkernel.events": "count",
    "simkernel.self_s": "s",
    "net.datagrams": "count",
    "net.self_s": "s",
    "mqttsn.publishes": "count",
    "mqttsn.self_s": "s",
    "translator.payloads": "count",
    "translator.batches": "count",
    "translator.payloads_per_batch": "ratio",
    "translator.self_s": "s",
    "codec.encode_calls": "count",
    "codec.encode_s": "s",
    "codec.decode_calls": "count",
    "codec.decode_s": "s",
    "codec.self_s": "s",
    "capture.self_s": "s",
    "capture.sim_cpu_ms_per_record": "sim-ms",
    "journal.appends": "count",
    "journal.append_s": "s",
    "journal.acks": "count",
    "journal.ack_s": "s",
    "journal.self_s": "s",
    "dedup.checks": "count",
    "fleet.journal_recoveries": "count",
    "dfanalyzer.ingest_calls": "count",
    "dfanalyzer.ingest_s": "s",
    "dfanalyzer.rows_visited": "count",
    "dfanalyzer.self_s": "s",
    "http.requests": "count",
    "http.self_s": "s",
    "tcp.self_s": "s",
    "device.self_s": "s",
    "workload.self_s": "s",
    "trace.self_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_x": "x",
}

#: seconds one run may take before it is killed
RUN_TIMEOUT_S = 150
#: fewest runs per workload under ``--seconds``: with three, one run the
#: host slowed down cannot set the median
MIN_TIMED_RUNS = 3


class BenchError(RuntimeError):
    """A run could not run to completion."""


def _child_env(tmp: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        # durable-capture journals are created under the temp directory
        TMPDIR=tmp,
        # one thread of load per run
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(name: str, seed: int, trace: bool, shrunk: bool = False) -> Dict[str, Any]:
    """One measured run of workload ``name`` in a fresh process."""
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=build)
    spec = {"workload": name, "seed": seed, "trace": trace, "shrunk": shrunk,
            "launched_at": time.time()}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "tracer.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            cwd=ROOT, env=_child_env(tmp), timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: run exceeded {RUN_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{name}: run exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(name: str, runs: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Fold the runs of one workload into its metrics and its checks."""
    problems = []
    checked = runs + ([traced] if traced else [])
    sims = [run["sim"] for run in checked]
    if any(sim != sims[0] for sim in sims):
        problems.append(f"{name}: simulated-clock metrics differ between runs "
                        f"of the same seed: {sims}")
    attempted = sum(run["attempted"] for run in checked)
    failed = sum(run["failed"] for run in checked)
    if failed:
        problems.append(f"{name}: {failed} of {attempted} records were not "
                        "ingested exactly once")
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric, (unit, clock) in END_TO_END.items():
        if clock == "sim":
            metrics[metric] = {"value": runs[0]["sim"][metric], "unit": unit}
        else:
            q1, med, q3 = quartiles([run["wall"][metric] for run in runs])
            metrics[metric] = {"value": med, "unit": unit, "q1": q1, "q3": q3}
            if metric in runs[0]["raw"]:
                metrics[metric]["raw"] = statistics.median(run["raw"][metric] for run in runs)
    layers: Dict[str, Dict[str, Any]] = {}
    if traced is not None:
        values = dict(traced["trace"])
        median_wall = statistics.median(run["wall_s"] for run in runs)
        values["trace.overhead_x"] = values.pop("trace.wall_s") / median_wall
        layers = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}
    return {
        "workload": name,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "latency_samples": runs[0]["latency_samples"],
        "metrics": metrics,
        "layers": layers,
        "runs": [{**run["sim"], **run["wall"], "speed": run["speed"],
                  **{"raw_" + metric: value for metric, value in run["raw"].items()}}
                 for run in runs],
        "problems": problems,
    }


def lines(summary: Dict[str, Any]) -> List[str]:
    """``workload metric value unit`` lines of one summary."""
    name, n = summary["workload"], len(summary["runs"])
    speed = statistics.median(run["speed"] for run in summary["runs"])
    out = []
    for metric, m in summary["metrics"].items():
        line = f"{name} {metric} {m['value']!r} {m['unit']}"
        if "raw" in m:
            line += (f"  (q1 {m['q1']!r}, q3 {m['q3']!r}, {n} runs; at reference "
                     f"speed, raw median {m['raw']!r} at speed {speed:.3f})")
        elif "q1" in m:
            line += f"  (q1 {m['q1']!r}, q3 {m['q3']!r}, {n} runs)"
        elif metric.startswith("e2e_latency"):
            line += f"  ({summary['latency_samples']} samples)"
        out.append(line)
    out.append(f"{name} {FAILED_FRAC[0]} {summary['failed_frac']!r} {FAILED_FRAC[1]}")
    out += [f"{name} {metric} {m['value']!r} {m['unit']}"
            for metric, m in summary["layers"].items()]
    return out


def run_pass(names: List[str], seed: int, runs: int, seconds: Optional[float],
             trace: bool, shrunk: bool = False) -> List[Dict[str, Any]]:
    """Interleaved rounds over ``names``, then one traced run each."""
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    start = time.perf_counter()
    rounds = 0
    while True:
        for name in names:
            results[name].append(run_child(name, seed, False, shrunk))
        rounds += 1
        if seconds is None:
            if rounds >= runs:
                break
        elif rounds >= MIN_TIMED_RUNS and time.perf_counter() - start >= seconds:
            break
    return [
        summarize(name, results[name],
                  run_child(name, seed, True, shrunk) if trace else None)
        for name in names
    ]


def result(summaries: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The closing JSON object: end-to-end metrics, or per-layer ones with
    ``trace``; with several workloads each name is ``workload/metric``."""
    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["workload"] + "/"
        for metric, m in summary["layers" if trace else "metrics"].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": not any(summary["problems"] for summary in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, interleaved)")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload (default 5)")
    parser.add_argument("--seed", type=int, default=1,
                        help="first workload seed (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="run rounds for this long instead of --runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one profiled run per workload")
    parser.add_argument("--out", help="write every run's values to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.runs < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--seed must be >= 0, --runs >= 1 and --seconds > 0")
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        summaries = run_pass(names, args.seed, args.runs, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2
    for summary in summaries:
        print("\n".join(lines(summary)))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "workloads": {s["workload"]: s for s in summaries}},
                      fh, indent=1)
    for problem in (p for summary in summaries for p in summary["problems"]):
        print(f"FAIL {problem}")
    outcome = result(summaries, bool(args.trace))
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
