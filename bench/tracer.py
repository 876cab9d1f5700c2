"""One measured run of a workload, observed from outside the program.

The run drives ``repro.harness.experiments.run_capture_experiment`` (and
``run_null_baseline`` for the overhead), the entry point the paper tables
use, and observes it through three hooks installed before any world is
built:

* :class:`Probe` installs an ``Environment`` subclass through the public
  ``set_default_environment_class``; it records the live environment and
  the wall time of the first ``Environment.run()`` (the end of set-up);
* a wrapper on ``DfAnalyzerService.ingest`` records, for every ingested
  record, ``env.now - record["time"]`` and its ledger key
  ``(dataflow_tag, task_id, status|event)``;
* in a traced run, ``cProfile`` around each ``run_capture_experiment``.

The host's speed drifts: on a shared 2-core VM, the same run's set-up and
wall time grew by up to 1.9x over a few minutes while nothing else ran.
An untraced run therefore also times a fixed, benchmark-owned reference
workload (:func:`reference_slice`) in slices interleaved with the
measured code, at most every :data:`REFERENCE_PERIOD_S` of wall time, from
the same ingest hook.  The slices' time is excluded from the measured
wall time, and the wall-clock metrics are reported at reference speed:
scaled by :data:`NOMINAL_SLICE_S` over the run's mean slice time.  The raw
values are reported too.

Run as a script, it reads a run spec (JSON) on stdin and prints the run's
metrics as one JSON line::

    echo '{"workload": "fanin-64", "seed": 1, "trace": false}' \\
        | PYTHONPATH=src python bench/tracer.py
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import sys
import time
from collections import Counter
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from workloads import WORKLOADS, Workload, experiment

__all__ = ["Probe", "measure", "layer_metrics", "LAYERS"]

#: layer -> module prefixes of ``src/repro``; the longest matching prefix
#: wins, so ``repro.net.tcp`` is ``tcp`` while the rest of ``repro.net``
#: is ``net``
LAYERS: Dict[str, Tuple[str, ...]] = {
    "simkernel": ("repro.simkernel",),
    "net": ("repro.net",),
    "tcp": ("repro.net.tcp",),
    "mqttsn": ("repro.mqttsn", "repro.hashring"),
    "translator": ("repro.core.server", "repro.core.translator",
                   "repro.core.resilience"),
    "codec": ("repro.core.serialization", "repro.core.security"),
    "capture": ("repro.capture", "repro.core", "repro.calibration"),
    "journal": ("repro.capture.journal", "repro.capture.envelope"),
    "dfanalyzer": ("repro.dfanalyzer",),
    "http": ("repro.http",),
    "device": ("repro.device",),
    "workload": ("repro.workloads", "repro.harness", "repro.metrics",
                 "repro.baselines"),
}

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYERS.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)
_EXTERNAL = "<external>"
_BENCH = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_BENCH), "src")


#: wall seconds between reference slices
REFERENCE_PERIOD_S = 0.01
#: mean time of one reference slice on the host the baseline was measured
#: on (Python 3.11, 2 vCPUs, uncontended): the speed the wall-clock
#: metrics are reported at
NOMINAL_SLICE_S = 150e-6


def reference_slice() -> int:
    """Fixed interpreter work of the kind the simulator's time goes to
    (calls, loops, dict updates, heap pushes and pops).  It allocates no
    objects the garbage collector tracks, so a collection of the
    simulator's heap never lands inside a slice."""
    heap: List[int] = []
    table: Dict[int, int] = {}
    for i in range(300):
        heappush(heap, i * 7919 % 1009)
        table[i & 63] = table.get(i & 63, 0) + i
    while heap:
        heappop(heap)
    return len(table)


class Probe:
    """The benchmark's hooks into one process (see the module docstring)."""

    def __init__(self, reference: bool) -> None:
        self.env = None
        self.first_run_at: Optional[float] = None
        self.latencies: List[float] = []
        self.ledger: Counter = Counter()
        self.reference = reference
        self.reference_s = 0.0
        self.reference_slices = 0
        self._last_slice = 0.0

    def install(self):
        """Install both hooks; returns the original ``ingest`` function."""
        from repro.dfanalyzer import DfAnalyzerService
        from repro.simkernel.core import Environment, set_default_environment_class

        probe = self

        class ProbedEnvironment(Environment):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probe.env = self

            def run(self, until=None):
                if probe.first_run_at is None:
                    probe.first_run_at = time.time()
                return super().run(until)

        original = DfAnalyzerService.ingest

        def ingest(service, payload):
            count = original(service, payload)
            now = probe.env.now
            for record in payload if isinstance(payload, list) else [payload]:
                probe.latencies.append(now - record["time"])
                probe.ledger[(
                    record["dataflow_tag"],
                    record.get("task_id"),
                    record.get("status") or record["event"],
                )] += 1
            if probe.reference and time.perf_counter() - probe._last_slice >= REFERENCE_PERIOD_S:
                probe.time_reference_slice()
            return count

        set_default_environment_class(ProbedEnvironment)
        DfAnalyzerService.ingest = ingest
        return original

    def time_reference_slice(self) -> None:
        start = time.perf_counter()
        reference_slice()
        self._last_slice = end = time.perf_counter()
        self.reference_s += end - start
        self.reference_slices += 1

    def take_ledger(self) -> Counter:
        ledger, self.ledger = self.ledger, Counter()
        return ledger


def _not_exactly_once(ledger: Counter, expected: Counter) -> int:
    """Records missing plus records duplicated, against ``expected``."""
    return sum(abs(ledger[key] - expected[key]) for key in ledger.keys() | expected.keys())


def _expected_ledger(config, devices: int) -> Counter:
    """Every key of one seed, ingested once per device: all devices of a
    run share ``workflow_id``, so their keys coincide."""
    tag = str(config.workflow_id)
    keys = [(tag, None, "begin"), (tag, None, "end")]
    data_id = 0
    for transf_id in range(config.chained_transformations):
        for _ in range(config.tasks_per_transformation):
            data_id += 1
            keys += [(tag, f"{transf_id}-{data_id}", "RUNNING"),
                     (tag, f"{transf_id}-{data_id}", "FINISHED")]
    return Counter({key: devices for key in keys})


def measure(workload: Workload, seed: int, trace: bool,
            launched_at: float) -> Dict[str, Any]:
    """Run ``workload`` on seeds ``seed..seed+k-1``; returns its metrics."""
    probe = Probe(reference=not trace)
    original_ingest = probe.install()
    from repro.harness.experiments import run_capture_experiment, run_null_baseline
    from repro.metrics import relative_overhead

    setup, config = experiment(workload)
    expected = _expected_ledger(config, workload.devices)
    captured_per_seed = sum(expected.values())
    profiler = cProfile.Profile() if trace else None
    wall = 0.0
    outcomes = []
    attempted = failed = ingested = 0
    for s in range(seed, seed + workload.seeds):
        if profiler is not None:
            profiler.enable()
        start, reference_before = time.perf_counter(), probe.reference_s
        outcome = run_capture_experiment(setup, config, s)
        wall += time.perf_counter() - start - (probe.reference_s - reference_before)
        if profiler is not None:
            profiler.disable()
        ledger = probe.take_ledger()
        attempted += captured_per_seed
        ingested += sum(ledger.values())
        failed += _not_exactly_once(ledger, expected)
        outcomes.append(outcome)
    overheads = [
        relative_overhead(
            outcome.mean_elapsed,
            run_null_baseline(config, s, n_devices=setup.n_devices,
                              device_spec=setup.device_spec),
        )
        for s, outcome in zip(range(seed, seed + workload.seeds), outcomes)
    ]
    runs = [m for outcome in outcomes for m in outcome.metrics]
    latencies_ms = np.asarray(probe.latencies) * 1e3
    sim = {
        "capture_overhead_pct": 100.0 * float(np.mean(overheads)),
        "e2e_latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "e2e_latency_p99_ms": float(np.percentile(latencies_ms, 99)),
        "capture_cpu_pct": 100.0 * float(np.mean([m.capture_cpu_utilization for m in runs])),
        "capture_mem_kb": float(np.mean([m.capture_memory_peak_bytes for m in runs])) / 1024,
        "wire_bytes_per_record": sum(m.tx_bytes + m.rx_bytes for m in runs) / attempted,
        "device_power_w": float(np.mean([m.average_power_w for m in runs])),
        "failed_frac": failed / attempted,
    }
    raw = {
        "wall_us_per_record": wall / ingested * 1e6,
        "setup_s": probe.first_run_at - launched_at,
    }
    if probe.reference_slices:
        speed = NOMINAL_SLICE_S / (probe.reference_s / probe.reference_slices)
    else:
        speed = 1.0  # traced runs time no slices
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "latency_samples": len(latencies_ms),
        "wall_s": wall,
        "speed": speed,
        "raw": raw,
        "sim": sim,
        "wall": {
            **{metric: value * speed for metric, value in raw.items()},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if profiler is not None:
        cores = setup.device_spec.cores
        capture_cpu_s = sum(
            m.capture_cpu_utilization * m.elapsed_s * cores for m in runs
        )
        result["trace"] = layer_metrics(
            pstats.Stats(profiler), original_ingest,
            fleet_recoveries=sum(
                o.fleet_stats["journal_recoveries"] for o in outcomes
                if o.fleet_stats is not None
            ),
        )
        result["trace"]["capture.sim_cpu_ms_per_record"] = capture_cpu_s / attempted * 1e3
        result["trace"]["trace.wall_s"] = wall
    return result


def _layer_of(filename: str) -> Optional[str]:
    """Layer of a profiled function's file; ``_EXTERNAL`` outside ``src/``
    (stdlib, builtins, numpy), ``None`` for code in no layer."""
    path = os.path.abspath(filename)
    if not path.startswith(_SRC + os.sep):
        return None if path.startswith(_BENCH + os.sep) else _EXTERNAL
    module = os.path.relpath(path, _SRC)[: -len(".py")].replace(os.sep, ".")
    module = module.removesuffix(".__init__")
    for prefix, layer in _PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _self_time_by_layer(stats: Dict) -> Dict[Optional[str], float]:
    """Self time per layer.  An external function's self time goes to its
    callers' layers, split by the time cProfile records under each caller
    (recursively, for external callers)."""
    layers = {func: _layer_of(func[0]) for func in stats}
    shares: Dict[Any, Dict[Optional[str], float]] = {}

    def share(func, stack) -> Dict[Optional[str], float]:
        if func in shares:
            return shares[func]
        if layers.get(func, _EXTERNAL) != _EXTERNAL:
            return {layers[func]: 1.0}
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[2] for entry in callers.values())
        if total <= 0 or func in stack:
            return {None: 1.0}
        result: Dict[Optional[str], float] = {}
        for caller, entry in callers.items():
            for layer, part in share(caller, stack | {func}).items():
                result[layer] = result.get(layer, 0.0) + part * entry[2] / total
        shares[func] = result
        return result

    totals: Dict[Optional[str], float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for layer, part in share(func, frozenset()).items():
            totals[layer] = totals.get(layer, 0.0) + tt * part
    return totals


def layer_metrics(profile: pstats.Stats, original_ingest,
                  fleet_recoveries: int) -> Dict[str, float]:
    """Per-layer counts and times of a profiled run."""
    from repro.capture.envelope import ReplayDeduper
    from repro.capture.journal import CaptureJournal
    from repro.core.serialization import decode_payload, encode_payload
    from repro.core.server import CallableBackend
    from repro.core.translator import Translator
    from repro.dfanalyzer.store import Table
    from repro.http.messages import HttpRequest
    from repro.mqttsn.client import MqttSnClient
    from repro.net.udp import UdpSocket
    from repro.simkernel.core import Environment

    stats = profile.stats
    counted = [  # (count metric, cumulative-time metric, function)
        ("simkernel.events", None, Environment.step),
        ("net.datagrams", None, UdpSocket.sendto),
        ("mqttsn.publishes", None, MqttSnClient.publish_nowait),
        ("translator.payloads", None, Translator.translate_payload),
        ("translator.batches", None, CallableBackend.ingest_batch),
        ("codec.encode_calls", "codec.encode_s", encode_payload),
        ("codec.decode_calls", "codec.decode_s", decode_payload),
        ("journal.appends", "journal.append_s", CaptureJournal.append),
        ("journal.acks", "journal.ack_s", CaptureJournal.ack),
        ("dedup.checks", None, ReplayDeduper.seen),
        ("dfanalyzer.ingest_calls", "dfanalyzer.ingest_s", original_ingest),
        ("dfanalyzer.rows_visited", None, Table.row),
        ("http.requests", None, HttpRequest.encode),
    ]
    out: Dict[str, float] = {"fleet.journal_recoveries": fleet_recoveries}
    for count_name, time_name, function in counted:
        code = function.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        _cc, calls, _tt, cumulative, _callers = stats.get(key, (0, 0, 0.0, 0.0, {}))
        out[count_name] = calls
        if time_name:
            out[time_name] = cumulative
    batches = out["translator.batches"]
    out["translator.payloads_per_batch"] = out["translator.payloads"] / batches if batches else 0.0
    self_times = _self_time_by_layer(stats)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    total = sum(self_times.values())
    out["trace.self_s"] = total
    out["trace.unattributed_share"] = self_times.get(None, 0.0) / total if total else 0.0
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    launched_at = spec.get("launched_at", time.time())
    workload = WORKLOADS[spec["workload"]]
    if spec.get("shrunk"):
        workload = workload.shrunk()
    result = measure(workload, spec["seed"], spec["trace"], launched_at)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
