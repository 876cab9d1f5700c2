#!/usr/bin/env python
"""Run the wall-clock microbenchmarks and record the perf trajectory.

Runs ``benchmarks/test_microbench_codecs.py``,
``benchmarks/test_broker_routing_scale.py`` and
``benchmarks/test_broker_shard_scale.py`` under pytest-benchmark with a
fixed seed, then writes ``BENCH_microbench_codecs.json`` at the repo
root: median ns/op per benchmark, the real payload sizes the codecs
produce, and the headline ratios the hot-path issues track (codec
v2-vs-v1, routing index vs the seed linear scan at 1000 topics, broker
cluster throughput at 4 shards vs the single broker — the latter read
from the simulated-time ``extra_info`` the shard benchmark records, so
it is machine-independent).

Regression gate: when ``benchmarks/baseline_microbench_codecs.json``
exists **and was written on this machine** (the baseline records a
machine fingerprint — medians are not comparable across hardware), any
benchmark whose median is more than ``--threshold`` (default 25%) slower
than the baseline fails the run with exit code 1, so CI can catch
regressions.  ``--write-baseline`` refreshes the baseline from the
current run.

Exact gate: the headlines read from simulated time or from payload sizes
(``EXACT_HEADLINES``) are deterministic, so every run — ``--quick``
included, and on any machine — must reproduce the values in the
committed BENCH json exactly; any difference exits 1.  It runs before
the fingerprint check, which only disarms the wall-clock median gate.  A
full run still rewrites the BENCH json, so a deliberate change to a
simulated headline is acknowledged by committing the rewritten file.

``--quick`` caps pytest-benchmark's calibration so the whole run fits in
tier-1 CI budgets; it still arms the regression gate — with the
threshold widened to at least ``QUICK_THRESHOLD`` because uncalibrated
medians jitter — but skips rewriting the committed BENCH json and
refuses ``--write-baseline`` (baselines must come from full runs).

Usage::

    python scripts/run_benchmarks.py              # run + write BENCH json
    python scripts/run_benchmarks.py --write-baseline
    python scripts/run_benchmarks.py --quick      # CI: gate only
    python scripts/run_benchmarks.py --threshold 0.10
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = [
    REPO_ROOT / "benchmarks" / "test_microbench_codecs.py",
    REPO_ROOT / "benchmarks" / "test_broker_routing_scale.py",
    REPO_ROOT / "benchmarks" / "test_broker_shard_scale.py",
    REPO_ROOT / "benchmarks" / "test_broker_skewed_scale.py",
    REPO_ROOT / "benchmarks" / "test_shard_failover.py",
    REPO_ROOT / "benchmarks" / "test_continuum_topologies.py",
]
OUTPUT_FILE = REPO_ROOT / "BENCH_microbench_codecs.json"
BASELINE_FILE = REPO_ROOT / "benchmarks" / "baseline_microbench_codecs.json"

#: deterministic interpreter state for reproducible dict ordering/hashing
FIXED_SEED = "0"

#: minimum gate threshold in --quick mode: 3-round no-warmup medians of
#: sub-microsecond benchmarks jitter well past 25% without a real
#: regression; 100% still catches the order-of-magnitude collapses the
#: gate exists for
QUICK_THRESHOLD = 1.0

#: headline keys computed from simulated time or payload sizes, never
#: from wall-clock medians: machine-independent, so compared exactly
EXACT_HEADLINES = (
    "broker_throughput_speedup_*",
    "dispatch_amortization_*",
    "skewed_placement_gain_*",
    "p2c_max_mean_session_ratio_*",
    "failover_recovery_ms",
    "degraded_throughput_3_of_4_shards",
    "continuum_throughput_ratio_*",
    "fleet_churn_recovery_ms_20pct",
    "grouped_*_size_reduction",
)


def machine_fingerprint() -> str:
    """Identifies the hardware class/interpreter a baseline is valid for.

    Deliberately excludes the hostname: CI runners are ephemeral and the
    gate must still arm on them.  Architecture + interpreter is the
    coarse cut that makes medians comparable; the thresholds absorb
    same-arch machine-to-machine wobble.
    """
    version = ".".join(platform.python_version_tuple()[:2])
    return f"{platform.machine()}/py{version}"


def run_pytest_benchmark(json_out: Path, quick: bool) -> None:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = FIXED_SEED
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *[str(path) for path in BENCH_FILES],
        "-q",
        "--benchmark-only",
        "--benchmark-disable-gc",
        f"--benchmark-json={json_out}",
    ]
    # warmup stays on even in quick mode: cold medians of sub-microsecond
    # benchmarks run ~2x the calibrated ones and would trip any sane gate
    cmd += ["--benchmark-warmup=on"]
    if quick:
        cmd += ["--benchmark-max-time=0.1", "--benchmark-min-rounds=3"]
    result = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if result.returncode != 0:
        sys.exit(f"benchmark run failed (pytest exit {result.returncode})")


def payload_sizes() -> dict:
    import importlib.util

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core import encode_payload

    codec_bench = BENCH_FILES[0]
    spec = importlib.util.spec_from_file_location("microbench_codecs", codec_bench)
    mb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mb)

    record_100 = mb.RECORD_100
    group_50 = mb.GROUP_50
    return {
        "record_100_v1_bytes": len(encode_payload(record_100, version=1)),
        "record_100_v2_bytes": len(encode_payload(record_100)),
        "record_100_v1_uncompressed_bytes": len(
            encode_payload(record_100, version=1, compress=False)
        ),
        "record_100_v2_uncompressed_bytes": len(
            encode_payload(record_100, compress=False)
        ),
        "grouped_50x10_v1_bytes": len(encode_payload(group_50, version=1)),
        "grouped_50x10_v2_bytes": len(encode_payload(group_50)),
        "grouped_50x10_v1_uncompressed_bytes": len(
            encode_payload(group_50, version=1, compress=False)
        ),
        "grouped_50x10_v2_uncompressed_bytes": len(
            encode_payload(group_50, compress=False)
        ),
    }


def summarize(raw: dict) -> dict:
    benchmarks = {}
    for bench in raw.get("benchmarks", ()):
        stats = bench["stats"]
        entry = {
            "median_ns": round(stats["median"] * 1e9, 1),
            "mean_ns": round(stats["mean"] * 1e9, 1),
            "stddev_ns": round(stats["stddev"] * 1e9, 1),
            "rounds": stats["rounds"],
        }
        extra = bench.get("extra_info") or {}
        if extra:
            # simulated-time measures (e.g. shard-cluster msgs/s) ride
            # along; unlike medians they are machine-independent
            entry["extra_info"] = extra
        benchmarks[bench["name"]] = entry
    return benchmarks


def headline(benchmarks: dict, sizes: dict) -> dict:
    def median(name: str):
        entry = benchmarks.get(name)
        return entry["median_ns"] if entry else None

    out: dict = {}
    e1 = median("test_encode_payload_100_attrs_v1_baseline")
    e2 = median("test_encode_payload_100_attrs")
    d1 = median("test_decode_payload_100_attrs_v1_baseline")
    d2 = median("test_decode_payload_100_attrs")
    if all(x for x in (e1, e2, d1, d2)):
        out["encode_speedup_v2_over_v1"] = round(e1 / e2, 2)
        out["decode_speedup_v2_over_v1"] = round(d1 / d2, 2)
        out["encode_decode_speedup_v2_over_v1"] = round((e1 + d1) / (e2 + d2), 2)
    r1 = median("test_route_1000_topics_linear_scan_baseline")
    r2 = median("test_route_1000_topics_index")
    if r1 and r2:
        out["routing_speedup_index_over_scan_1000_topics"] = round(r1 / r2, 1)

    def shard_throughput(shards: int):
        entry = benchmarks.get(f"test_cluster_publish_throughput[{shards}]")
        if not entry:
            return None
        return entry.get("extra_info", {}).get("simulated_msgs_per_s")

    t1 = shard_throughput(1)
    for shards in (2, 4, 8):
        tn = shard_throughput(shards)
        if t1 and tn:
            out[f"broker_throughput_speedup_{shards}_shards_over_1"] = round(
                tn / t1, 2
            )
    # front-dispatcher bundling: datagrams amortized per shard bundle at
    # the heaviest fan-in (8 shards) — 1.0 would mean no amortization
    entry = benchmarks.get("test_cluster_publish_throughput[8]")
    if entry:
        per_bundle = entry.get("extra_info", {}).get("dispatch_datagrams_per_bundle")
        if per_bundle:
            out["dispatch_amortization_datagrams_per_bundle_8_shards"] = per_bundle
    # skewed fan-in: what placement policy buys when the client-id
    # population clumps on one ring node (the adversarial case for hash)
    def skewed(shards: int, placement: str):
        entry = benchmarks.get(
            f"test_skewed_publish_throughput[{shards}-{placement}]"
        )
        if not entry:
            return None
        return entry.get("extra_info", {})

    s1 = skewed(1, "hash")
    s8_hash = skewed(8, "hash")
    s8_p2c = skewed(8, "p2c")
    if s1 and s8_p2c and s1.get("simulated_msgs_per_s"):
        out["broker_throughput_speedup_8_shards_over_1_skewed"] = round(
            s8_p2c["simulated_msgs_per_s"] / s1["simulated_msgs_per_s"], 2
        )
        if s8_hash and s8_hash.get("simulated_msgs_per_s"):
            out["skewed_placement_gain_p2c_over_hash_8_shards"] = round(
                s8_p2c["simulated_msgs_per_s"]
                / s8_hash["simulated_msgs_per_s"],
                2,
            )
        ratio = s8_p2c.get("max_mean_session_ratio")
        if ratio:
            out["p2c_max_mean_session_ratio_8_shards"] = ratio
    # fault tolerance: the end-to-end publish outage a durable client
    # rides through when a shard dies (detection + reconnect + replay),
    # and the fan-in rate the plane keeps after losing 1 of 4 shards
    entry = benchmarks.get("test_failover_recovery")
    if entry:
        recovery = entry.get("extra_info", {}).get("failover_recovery_ms")
        if recovery:
            out["failover_recovery_ms"] = recovery
    entry = benchmarks.get("test_degraded_cluster_publish_throughput")
    if entry:
        degraded = entry.get("extra_info", {}).get("simulated_msgs_per_s")
        healthy = shard_throughput(4)
        if degraded and healthy:
            out["degraded_throughput_3_of_4_shards"] = round(
                degraded / healthy, 2
            )
    # continuum topologies: what the paper's tiered, lossy continuum
    # costs versus the seed's ideal-star assumption (simulated time, so
    # machine-independent), and how fast a 20%-churned durable fleet is
    # whole again (restart + journal replay)
    def topology_throughput(preset: str):
        entry = benchmarks.get(f"test_topology_fanin_throughput[{preset}]")
        if not entry:
            return None
        return entry.get("extra_info", {}).get("simulated_msgs_per_s")

    ideal = topology_throughput("ideal")
    if ideal:
        for preset in ("constrained-edge", "lossy-wireless", "wan-fog"):
            tp = topology_throughput(preset)
            if tp:
                key = preset.replace("-", "_")
                out[f"continuum_throughput_ratio_{key}_over_ideal"] = round(
                    tp / ideal, 4
                )
        lossy = topology_throughput("lossy-wireless")
        if lossy:
            out["continuum_throughput_ratio_lossy_edge_over_ideal"] = round(
                lossy / ideal, 4
            )
    entry = benchmarks.get("test_fleet_churn_recovery")
    if entry:
        recovery = entry.get("extra_info", {}).get("fleet_churn_recovery_ms_20pct")
        if recovery:
            out["fleet_churn_recovery_ms_20pct"] = recovery
    # durable capture: what the WAL write-through adds on top of encoding
    # one 100-attr record (the per-record client cost of durable=True)
    wal = median("test_journal_append_100_attrs")
    wal_signed = median("test_journal_append_signed_100_attrs")
    if wal and e2:
        out["wal_append_overhead_vs_encode_100_attrs"] = round(wal / e2, 2)
    if wal and wal_signed:
        out["wal_append_signing_overhead"] = round(wal_signed / wal, 2)
    # what the in-order ack (one truncating transaction) adds per record,
    # relative to the append
    wal_ack = median("test_journal_append_ack_100_attrs")
    if wal and wal_ack:
        out["wal_ack_overhead_vs_append"] = round((wal_ack - wal) / wal, 2)
    g1 = sizes["grouped_50x10_v1_uncompressed_bytes"]
    g2 = sizes["grouped_50x10_v2_uncompressed_bytes"]
    out["grouped_uncompressed_size_reduction"] = round(1 - g2 / g1, 3)
    out["grouped_compressed_size_reduction"] = round(
        1 - sizes["grouped_50x10_v2_bytes"] / sizes["grouped_50x10_v1_bytes"], 3
    )
    return out


def check_exact_headlines(current: dict, committed: dict) -> list:
    """Simulated-time headlines that differ from the committed BENCH json."""
    keys = sorted(
        key
        for key in {*current, *committed}
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in EXACT_HEADLINES)
    )
    return [
        f"{key}: {current.get(key)!r} vs committed {committed.get(key)!r}"
        for key in keys
        if current.get(key) != committed.get(key)
    ]


def check_regressions(benchmarks: dict, baseline: dict, threshold: float) -> list:
    regressions = []
    for name, entry in baseline.get("benchmarks", {}).items():
        current = benchmarks.get(name)
        if current is None:
            # a renamed or collection-dropped benchmark must not silently
            # disarm its gate; force a baseline refresh instead
            regressions.append(
                f"{name}: present in the baseline but missing from this run "
                "(renamed/dropped? rerun --write-baseline to acknowledge)"
            )
            continue
        old, new = entry["median_ns"], current["median_ns"]
        if old > 0 and new > old * (1 + threshold):
            regressions.append(
                f"{name}: median {new:.0f} ns vs baseline {old:.0f} ns "
                f"(+{(new / old - 1):.0%}, threshold +{threshold:.0%})"
            )
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional slowdown that counts as a regression (default 0.25)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=f"refresh {BASELINE_FILE.name} from this run",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short calibration for CI: arms the regression gate but "
        "does not rewrite the committed BENCH json",
    )
    args = parser.parse_args()
    if args.quick and args.write_baseline:
        parser.error("--write-baseline needs a full calibrated run; drop --quick")

    committed = (
        json.loads(OUTPUT_FILE.read_text()).get("headline", {})
        if OUTPUT_FILE.exists()
        else {}
    )
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        json_out = Path(handle.name)
    try:
        run_pytest_benchmark(json_out, quick=args.quick)
        raw = json.loads(json_out.read_text())
    finally:
        json_out.unlink(missing_ok=True)

    benchmarks = summarize(raw)
    sizes = payload_sizes()
    report = {
        "schema": 2,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "machine": machine_fingerprint(),
        "fixed_seed": FIXED_SEED,
        "quick": args.quick,
        "benchmarks": benchmarks,
        "payload_sizes": sizes,
        "headline": headline(benchmarks, sizes),
    }
    if args.quick:
        print("quick mode: BENCH json not rewritten")
    else:
        OUTPUT_FILE.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {OUTPUT_FILE.relative_to(REPO_ROOT)}")
    for key, value in report["headline"].items():
        print(f"  {key}: {value}")

    mismatches = check_exact_headlines(report["headline"], committed)
    if mismatches:
        print("SIMULATED-TIME HEADLINE MISMATCHES:", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
    else:
        print(f"simulated-time headlines match {OUTPUT_FILE.name}")
    status = 1 if mismatches else 0

    if args.write_baseline:
        BASELINE_FILE.write_text(
            json.dumps(
                {
                    "machine": machine_fingerprint(),
                    "recorded_on": platform.node(),
                    "python": sys.version.split()[0],
                    "generated_at": report["generated_at"],
                    "benchmarks": benchmarks,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {BASELINE_FILE.relative_to(REPO_ROOT)}")
        return status

    if BASELINE_FILE.exists():
        baseline = json.loads(BASELINE_FILE.read_text())
        # a baseline without a fingerprint is from an unknown machine:
        # treat it as incomparable rather than silently arming the gate
        recorded_on = baseline.get("machine")
        if recorded_on != machine_fingerprint():
            print(
                f"baseline was recorded on {recorded_on or 'unknown'!r}, this "
                f"is {machine_fingerprint()!r}; medians are not comparable — "
                "skipping regression gate (rerun --write-baseline here)"
            )
            return status
        threshold = args.threshold
        if args.quick and threshold < QUICK_THRESHOLD:
            threshold = QUICK_THRESHOLD
            print(f"quick mode: gate threshold widened to +{threshold:.0%}")
        regressions = check_regressions(benchmarks, baseline, threshold)
        if regressions:
            print("PERFORMANCE REGRESSIONS:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"no regressions vs {BASELINE_FILE.relative_to(REPO_ROOT)}")
    else:
        print("no checked-in baseline; skipping regression gate")
    return status


if __name__ == "__main__":
    sys.exit(main())
