"""Experiment driver: build a world, run an instrumented workload, measure.

This module is the reusable middle layer between the workloads and the
per-table benchmark scripts: it reproduces the paper's experimental setup
(Fig. 5) for any capture system, bandwidth, delay, grouping and device
count, and returns the measures every table/figure is built from.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..baselines import DfAnalyzerCaptureClient, NullCaptureClient, ProvLakeClient
from ..capture import (
    CaptureConfig,
    create_client,
    deploy_capture_sink,
    get_transport_factory,
    normalize_transport,
)
from ..core import DEFAULT_TRANSLATOR_WORKERS, ProvLightServer, ServerConfig
from ..device import A8M3, XEON_GOLD_5220, Device, DeviceSpec
from ..dfanalyzer import DfAnalyzerService
from ..http import HttpResponse, HttpServer
from ..metrics import RunMetrics, mean_ci, relative_overhead, snapshot_device
from ..mqttsn import DEFAULT_BROKER_SHARDS, PLACEMENT_POLICIES
from ..net import (
    ChaosProfile,
    ContinuumTopology,
    FleetFaultInjector,
    Network,
    ServerFaultInjector,
    TopologySpec,
    parse_delay,
    parse_rate,
)
from ..net.fleet import recovery_times
from ..simkernel import Environment
from ..workloads import SyntheticWorkloadConfig, synthetic_workload

__all__ = [
    "SYSTEMS",
    "ExperimentSetup",
    "RunOutcome",
    "run_capture_experiment",
    "run_null_baseline",
    "measure_overhead",
    "OverheadResult",
]

SYSTEMS = ("provlight", "provlake", "dfanalyzer")

#: Default repetition count (the paper repeats each experiment 10 times).
DEFAULT_REPETITIONS = 10


def _server_knob(name: str, convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """Parser for the :class:`ServerConfig` field ``name``: ``convert``
    the raw string, then apply that field's own checks."""
    def parse(raw: str) -> Any:
        value = convert(raw)
        ServerConfig(**{name: value})  # raises ValueError naming the field
        return value
    return parse


def _spec_knob(grammar: Callable[[str], Any]) -> Callable[[str], str]:
    """Parser for a spec string: checked by ``grammar``, kept as text."""
    def parse(raw: str) -> str:
        grammar(raw)
        return raw
    return parse


def _knob(parse: Callable[[str], Any], default: Any, help: str, **flag: Any):
    """An :class:`ExperimentSetup` field whose flag ``python -m
    repro.harness`` generates from the metadata (``type=parse``,
    ``help``, the argparse options in ``flag``)."""
    return field(default=default, metadata={"parse": parse, "help": help, **flag})


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything that defines one experimental condition.

    Every field is checked at construction: a bad value fails here with
    a message naming the field, not mid-run.  A setup is a value: no
    default reads the environment, so a run depends only on its setup,
    its workload config and its seed.
    """

    system: str = "provlight"
    bandwidth: str = "1Gbit"
    delay: str = "23ms"
    group_size: int = 0
    n_devices: int = 1
    device_spec: DeviceSpec = A8M3
    compress: bool = True
    qos: int = 2
    #: capture transport for the provlight system (``mqttsn``, ``coap``
    #: or ``http`` — any name in :func:`repro.capture.transport_names`)
    transport: str = "mqttsn"
    #: size of the sharded translator pool on the server (paper Table IX:
    #: 8 workers absorb 64 device topics)
    translator_workers: int = DEFAULT_TRANSLATOR_WORKERS
    broker_shards: int = _knob(
        _server_knob("broker_shards", int), DEFAULT_BROKER_SHARDS,
        "broker shards behind the ProvLight server endpoint for every "
        "experiment (default: 1, the single-broker deployment)",
        metavar="N",
    )
    broker_placement: str = _knob(
        _server_knob("broker_placement", str), "hash",
        "session placement policy across broker shards (hash = consistent "
        "hashing, the default; p2c = load-aware power-of-two-choices)",
        choices=PLACEMENT_POLICIES,
    )
    pool_min: Optional[int] = _knob(
        _server_knob("pool_min", int), None,
        "lower bound of the elastic translator pool (default: static "
        "pool, no autoscaling)",
        metavar="N",
    )
    pool_max: Optional[int] = _knob(
        _server_knob("pool_max", int), None,
        "upper bound of the elastic translator pool (default: static "
        "pool, no autoscaling)",
        metavar="N",
    )
    chaos: Optional[str] = _knob(
        _spec_knob(ChaosProfile.parse), None,
        "chaos schedule applied to every ProvLight run, e.g. "
        "'kill-shard@2.0', 'churn@5:0.2:2' or 'partition-tier:edge-fog@8:3' "
        "(see repro.net.ChaosProfile for the grammar)",
        metavar="SPEC",
    )
    #: when set, the spec's link profiles replace ``bandwidth``/``delay``
    #: and its leaf tier is resized to ``n_devices``
    topology: Optional[str] = _knob(
        _spec_knob(TopologySpec.parse), None,
        "continuum topology for every run: a preset name (ideal, "
        "constrained-edge, lossy-wireless, wan-fog) or a spec like "
        "'edge:64:lossy-wireless,fog:4:wan-fog,cloud:1' (leaf tier first; "
        "its count is resized to each experiment's device count — see "
        "repro.net.TopologySpec)",
        metavar="SPEC",
    )

    def __post_init__(self):
        try:
            if self.system not in SYSTEMS:
                raise ValueError(
                    f"unknown system {self.system!r}; known: {', '.join(SYSTEMS)}")
            if (not isinstance(self.n_devices, int) or isinstance(self.n_devices, bool)
                    or self.n_devices < 1):
                raise ValueError(
                    f"n_devices must be an integer >= 1, got {self.n_devices!r}")
            if not parse_rate(self.bandwidth) > 0:
                raise ValueError(f"bandwidth must be > 0, got {self.bandwidth!r}")
            parse_delay(self.delay)
            self.capture_config()
            get_transport_factory(self.transport)
            self.server_config()
            self.chaos_profile()
            self.topology_spec()
        except ValueError as exc:
            raise ValueError(f"ExperimentSetup: {exc}") from None

    def chaos_profile(self) -> Optional["ChaosProfile"]:
        """The parsed chaos schedule, or ``None`` when chaos is off."""
        return ChaosProfile.parse(self.chaos) if self.chaos else None

    def topology_spec(self) -> Optional["TopologySpec"]:
        """The parsed continuum topology, or ``None`` for the star."""
        return TopologySpec.parse(self.topology) if self.topology else None

    def server_config(self) -> ServerConfig:
        """The server-plane config this condition describes."""
        return ServerConfig(
            workers=self.translator_workers,
            broker_shards=self.broker_shards,
            broker_placement=self.broker_placement,
            pool_min=self.pool_min,
            pool_max=self.pool_max,
        )

    def capture_config(self) -> CaptureConfig:
        """The declarative capture config this condition describes."""
        return CaptureConfig(
            transport=self.transport,
            group_size=self.group_size,
            compress=self.compress,
            qos=self.qos,
        )

    def describe(self) -> str:
        parts = [self.system, self.bandwidth, f"delay={self.delay}"]
        if normalize_transport(self.transport) != "mqttsn":
            parts.append(f"transport={self.transport}")
        if self.group_size:
            parts.append(f"group={self.group_size}")
        if self.n_devices > 1:
            parts.append(f"devices={self.n_devices}")
        if self.broker_shards > 1:
            parts.append(f"shards={self.broker_shards}")
        if self.broker_placement != "hash":
            parts.append(f"placement={self.broker_placement}")
        if self.pool_min is not None or self.pool_max is not None:
            parts.append(f"pool={self.pool_min or '-'}..{self.pool_max or '-'}")
        if self.chaos:
            parts.append(f"chaos={self.chaos}")
        if self.topology:
            parts.append(f"topology={self.topology}")
        if self.device_spec is not A8M3:
            parts.append(self.device_spec.name)
        return " ".join(parts)


@dataclass
class RunOutcome:
    """Measures of one run (per device)."""

    elapsed: List[float]
    metrics: List[RunMetrics]
    backend_records: int
    #: device-churn summary (devices crashed/restarted, journal
    #: recoveries, ``records_completed`` ledger) when the run drove a
    #: :class:`~repro.net.FleetFaultInjector`; ``None`` otherwise
    fleet_stats: Optional[Dict[str, Any]] = None
    #: the run's counters and event log: ``env.metrics.snapshot()``
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @property
    def mean_elapsed(self) -> float:
        return float(np.mean(self.elapsed))


def run_null_baseline(
    config: SyntheticWorkloadConfig, seed: int, n_devices: int = 1,
    device_spec: DeviceSpec = A8M3,
) -> float:
    """Elapsed time of the workload with no capture at all (same seeds)."""
    env = Environment()
    results = []
    for i in range(n_devices):
        device = Device(env, device_spec, name=f"null-{i}")
        result: Dict[str, Any] = {}
        results.append(result)
        env.process(
            synthetic_workload(
                env, NullCaptureClient(device), config,
                rng=np.random.default_rng(seed * 1000 + i), result=result,
            ),
            name=f"null-workload-{i}",
        )
    env.run()
    return float(np.mean([r["elapsed"] for r in results]))


def run_capture_experiment(
    setup: ExperimentSetup,
    config: SyntheticWorkloadConfig,
    seed: int,
    capture_config: Optional[CaptureConfig] = None,
) -> RunOutcome:
    """Run the workload with capture per ``setup``; returns the measures.

    ``capture_config`` overrides the :class:`~repro.capture.CaptureConfig`
    derived from ``setup`` (transport/grouping/QoS/compression) for the
    ``provlight`` system; the matching capture sink (MQTT-SN server, CoAP
    server or HTTP collector) is deployed automatically.
    """
    chaos_profile = setup.chaos_profile()
    topo_spec = setup.topology_spec()
    cap_config = capture_config or setup.capture_config()
    transport = normalize_transport(cap_config.transport)
    if chaos_profile is not None:
        chaos_profile.preflight(
            transport=transport if setup.system == "provlight" else setup.system,
            broker_shards=setup.broker_shards,
            has_topology=topo_spec is not None,
            fleet_capture=cap_config,
        )
    env = Environment()
    net = Network(env, seed=seed)

    cloud_device = Device(env, XEON_GOLD_5220, name="cloud-device")
    net.add_host("cloud", device=cloud_device)

    devices: List[Device] = []
    topology: Optional[ContinuumTopology] = None
    if topo_spec is not None:
        # the spec's link profiles define the network; the star's
        # bandwidth/delay fields do not apply
        def _make_device(tier: str, index: int):
            if tier != topo_spec.leaf.name:
                return None  # fog/intermediate hosts only forward
            device = Device(env, setup.device_spec, name=f"{tier}-{index}")
            devices.append(device)
            return device

        topology = ContinuumTopology(
            net, topo_spec.scaled(setup.n_devices), root_host="cloud",
            device_factory=_make_device,
        )
    else:
        bandwidth = parse_rate(setup.bandwidth)
        delay = parse_delay(setup.delay)
        for i in range(setup.n_devices):
            device = Device(env, setup.device_spec, name=f"edge-{i}")
            net.add_host(f"edge-{i}", device=device)
            net.connect(f"edge-{i}", "cloud", bandwidth_bps=bandwidth,
                        latency_s=delay)
            devices.append(device)

    backend_service = DfAnalyzerService(metrics=env.metrics)
    clients: List[Any] = []
    server: Optional[ProvLightServer] = None
    fleet: Optional[FleetFaultInjector] = None
    journal_tmp: Optional[str] = None
    if setup.system == "provlight":
        sink, endpoint = deploy_capture_sink(
            transport, net.hosts["cloud"], backend_service.ingest,
            http_workers=max(8, setup.n_devices),
            server=setup.server_config(),
        )
        if transport == "mqttsn":
            server = sink
        if chaos_profile is not None and chaos_profile.requires_fleet():
            # device churn only makes sense for clients that survive a
            # crash, so the run is auto-provisioned durable with
            # run-scoped journals (cleaned up after the run) unless the
            # caller already supplied a durable config
            fleet = FleetFaultInjector(env, seed=seed)
            if not cap_config.durable:
                journal_tmp = tempfile.mkdtemp(prefix="repro-fleet-journals-")
                cap_config = replace(
                    cap_config, durable=True, journal_dir=journal_tmp
                )
        for device in devices:
            topic = f"provlight/{device.name}/data"
            client = create_client(device, endpoint, topic, cap_config)
            if fleet is not None:
                def _restart(device=device, topic=topic):
                    return create_client(device, endpoint, topic, cap_config)

                fleet.register(device.name, client, _restart)
                clients.append(fleet.proxy(device.name))
            else:
                clients.append(client)
        if chaos_profile is not None:
            chaos_profile.apply(
                ServerFaultInjector(server), fleet=fleet, topology=topology
            )
    else:
        def handler(request):
            import json

            try:
                backend_service.ingest(json.loads(request.body.decode()))
            except (ValueError, KeyError, TypeError):
                # malformed body or record shape: byte/timing fidelity
                # matters here, not storage — but programming errors
                # (anything outside the malformed-payload family) surface
                pass
            return HttpResponse(status=201, reason="Created")

        sink = HttpServer(net.hosts["cloud"], 5000, handler,
                          workers=max(8, setup.n_devices))
        for device in devices:
            if setup.system == "provlake":
                clients.append(
                    ProvLakeClient(device, ("cloud", 5000), group_size=setup.group_size)
                )
            else:
                clients.append(DfAnalyzerCaptureClient(device, ("cloud", 5000)))

    results: List[Dict[str, Any]] = []
    snapshots: List[RunMetrics] = []

    def run_device(env, idx, client, device):
        if server is not None:
            yield from server.pool.attach(f"provlight/{device.name}/data")
        device.reset_accounting()
        result: Dict[str, Any] = {}
        results.append(result)
        yield from synthetic_workload(
            env, client, config,
            rng=np.random.default_rng(seed * 1000 + idx), result=result,
        )
        snapshots.append(snapshot_device(device, result["elapsed"]))

    for i, (client, device) in enumerate(zip(clients, devices)):
        env.process(run_device(env, i, client, device), name=f"device-{i}")
    fleet_stats: Optional[Dict[str, Any]] = None
    try:
        env.run()
        telemetry = env.metrics.snapshot()
        if fleet is not None:
            # the zero-loss ledger: proxy calls that ran to completion (see
            # repro.net.fleet.FleetClientProxy)
            fleet_stats = _fleet_summary(
                telemetry["events"], devices=len(fleet.devices),
                records_completed=sum(proxy.records_completed for proxy in clients),
            )
    finally:
        # the run's world is cyclic: without this the backend service
        # and its records would live until a full collection
        sink.close()
        try:
            if fleet is not None:
                for name in fleet.devices:
                    fleet.client_of(name).close()
        finally:
            if journal_tmp is not None:
                shutil.rmtree(journal_tmp, ignore_errors=True)

    return RunOutcome(
        elapsed=[r["elapsed"] for r in results],
        metrics=snapshots,
        backend_records=int(backend_service.records_ingested.count),
        fleet_stats=fleet_stats,
        telemetry=telemetry,
    )


def _fleet_summary(events: List[Dict[str, Any]], devices: int,
                   records_completed: int) -> Dict[str, Any]:
    """The device-churn figures of a run, read off its event log."""
    recovery_s = recovery_times(events)
    crashed = sum(1 for event in events if event["kind"] == "crash-device")
    summary: Dict[str, Any] = {
        "devices": devices,
        "devices_down": crashed - len(recovery_s),
        "devices_crashed": crashed,
        "devices_restarted": len(recovery_s),
        "journal_recoveries": sum(
            event["journal_recovery"] for event in events
            if event["kind"] == "device-up"
        ),
        "records_completed": records_completed,
    }
    if recovery_s:
        summary["max_recovery_s"] = max(recovery_s)
    return summary


@dataclass
class OverheadResult:
    """Overhead (paper's metric) across repetitions, with run measures."""

    setup: ExperimentSetup
    config: SyntheticWorkloadConfig
    overheads: List[float]
    outcomes: List[RunOutcome] = field(default_factory=list)

    @property
    def ci(self):
        return mean_ci(self.overheads)

    def mean_metric(self, reader) -> float:
        """Average a RunMetrics field over all runs/devices."""
        values = [
            reader(metric)
            for outcome in self.outcomes
            for metric in outcome.metrics
        ]
        return float(np.mean(values))


def measure_overhead(
    setup: ExperimentSetup,
    config: SyntheticWorkloadConfig,
    repetitions: int = DEFAULT_REPETITIONS,
    keep_outcomes: bool = True,
) -> OverheadResult:
    """The paper's capture-time-overhead measurement.

    For each repetition, the workload runs once without capture and once
    with, using identical task-duration jitter streams, and the relative
    elapsed-time difference is recorded.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    overheads: List[float] = []
    outcomes: List[RunOutcome] = []
    for rep in range(repetitions):
        seed = rep + 1
        t_without = run_null_baseline(
            config, seed, n_devices=setup.n_devices, device_spec=setup.device_spec
        )
        outcome = run_capture_experiment(setup, config, seed)
        overheads.append(relative_overhead(outcome.mean_elapsed, t_without))
        if keep_outcomes:
            outcomes.append(outcome)
    return OverheadResult(setup=setup, config=config, overheads=overheads,
                          outcomes=outcomes)
