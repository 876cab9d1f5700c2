"""Experiment driver: build a world, run an instrumented workload, measure.

This module is the reusable middle layer between the workloads and the
per-table benchmark scripts: it reproduces the paper's experimental setup
(Fig. 5) for any capture system, bandwidth, delay, grouping and device
count, and returns the measures every table/figure is built from.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..baselines import DfAnalyzerCaptureClient, NullCaptureClient, ProvLakeClient
from ..capture import (
    CaptureConfig,
    create_client,
    deploy_capture_sink,
    normalize_transport,
)
from ..core import (
    DEFAULT_BROKER_SHARDS,
    DEFAULT_TRANSLATOR_WORKERS,
    CallableBackend,
    ProvLightServer,
)
from ..device import A8M3, XEON_GOLD_5220, Device, DeviceSpec
from ..dfanalyzer import DfAnalyzerService
from ..http import HttpResponse, HttpServer
from ..metrics import RunMetrics, mean_ci, relative_overhead, snapshot_device
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


def _default_broker_shards() -> int:
    """Broker shard count; ``REPRO_BROKER_SHARDS`` overrides the default.

    The environment hook is what lets ``python -m repro.harness
    --broker-shards N`` retarget every table/figure without threading an
    argument through each driver.  Invalid values fail loudly here, at
    the first ``ExperimentSetup()``, matching the CLI's rejection.
    """
    value = os.environ.get("REPRO_BROKER_SHARDS")
    if not value:
        return DEFAULT_BROKER_SHARDS
    try:
        shards = int(value)
    except ValueError:
        raise ValueError(
            f"REPRO_BROKER_SHARDS must be an integer, got {value!r}"
        ) from None
    if shards < 1:
        raise ValueError(f"REPRO_BROKER_SHARDS must be >= 1, got {shards}")
    return shards


def _default_broker_placement() -> str:
    """Session placement policy; ``REPRO_BROKER_PLACEMENT`` overrides.

    ``hash`` (consistent hashing, the default) or ``p2c`` (load-aware
    power-of-two-choices).  Same loud-failure contract as
    :func:`_default_broker_shards`.
    """
    value = os.environ.get("REPRO_BROKER_PLACEMENT")
    if not value:
        return "hash"
    if value not in ("hash", "p2c"):
        raise ValueError(
            f"REPRO_BROKER_PLACEMENT must be 'hash' or 'p2c', got {value!r}"
        )
    return value


def _default_pool_bound(var: str) -> Optional[int]:
    """Optional translator-pool bound from ``REPRO_POOL_MIN``/``_MAX``."""
    value = os.environ.get(var)
    if not value:
        return None
    try:
        bound = int(value)
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {value!r}") from None
    if bound < 1:
        raise ValueError(f"{var} must be >= 1, got {bound}")
    return bound


def _default_pool_min() -> Optional[int]:
    return _default_pool_bound("REPRO_POOL_MIN")


def _default_pool_max() -> Optional[int]:
    return _default_pool_bound("REPRO_POOL_MAX")


def _default_chaos() -> Optional[str]:
    """Chaos profile spec; ``REPRO_CHAOS`` injects one into every run.

    Same contract as :func:`_default_broker_shards`: a malformed spec
    fails loudly at the first ``ExperimentSetup()``, not mid-run.
    """
    value = os.environ.get("REPRO_CHAOS")
    if not value:
        return None
    ChaosProfile.parse(value)  # validate eagerly; keep the spec string
    return value


def _default_topology() -> Optional[str]:
    """Continuum topology spec; ``REPRO_TOPOLOGY`` retargets every run.

    Accepts a preset name (``ideal``, ``constrained-edge``,
    ``lossy-wireless``, ``wan-fog``) or a full
    :class:`~repro.net.TopologySpec` string, validated eagerly so a
    typo fails at the first ``ExperimentSetup()``.
    """
    value = os.environ.get("REPRO_TOPOLOGY")
    if not value:
        return None
    TopologySpec.parse(value)  # validate eagerly; keep the spec string
    return value


@dataclass(frozen=True)
class ExperimentSetup:
    """Everything that defines one experimental condition."""

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
    #: attach each device topic to the server's translator pool (paper Fig. 5)
    with_translators: bool = True
    #: size of the sharded translator pool on the server (paper Table IX:
    #: 8 workers absorb 64 device topics)
    translator_workers: int = DEFAULT_TRANSLATOR_WORKERS
    #: broker shards behind the server endpoint (1 = the single-broker
    #: deployment; ``REPRO_BROKER_SHARDS`` overrides the default)
    broker_shards: int = field(default_factory=_default_broker_shards)
    #: session placement policy across broker shards (``hash`` = consistent
    #: hashing, ``p2c`` = load-aware power-of-two-choices;
    #: ``REPRO_BROKER_PLACEMENT`` overrides the default)
    broker_placement: str = field(default_factory=_default_broker_placement)
    #: elastic translator-pool bounds (``None`` = static pool of
    #: ``translator_workers``; ``REPRO_POOL_MIN``/``REPRO_POOL_MAX`` override)
    pool_min: Optional[int] = field(default_factory=_default_pool_min)
    pool_max: Optional[int] = field(default_factory=_default_pool_max)
    #: chaos schedule (:class:`~repro.net.ChaosProfile` spec string, e.g.
    #: ``"kill-shard@2.0"`` or ``"churn@5:0.2:2"``; ``REPRO_CHAOS`` sets
    #: a default)
    chaos: Optional[str] = field(default_factory=_default_chaos)
    #: continuum topology (:class:`~repro.net.TopologySpec` spec string or
    #: preset name, e.g. ``"lossy-wireless"``; ``None`` = the ideal star;
    #: ``REPRO_TOPOLOGY`` sets a default).  When set, the spec's link
    #: profiles replace ``bandwidth``/``delay`` and its leaf tier is
    #: resized to ``n_devices``.
    topology: Optional[str] = field(default_factory=_default_topology)

    def chaos_profile(self) -> Optional["ChaosProfile"]:
        """The parsed chaos schedule, or ``None`` when chaos is off."""
        if not self.chaos:
            return None
        return ChaosProfile.parse(self.chaos)

    def topology_spec(self) -> Optional["TopologySpec"]:
        """The parsed continuum topology, or ``None`` for the star."""
        if not self.topology:
            return None
        return TopologySpec.parse(self.topology)

    def effective_translator_workers(self) -> int:
        """Starting pool size: ``translator_workers`` clamped into the
        elastic bounds.  ``--pool-min``/``--pool-max`` express intent
        about the pool envelope; the static default (8) must not make
        the server refuse to start when it falls outside that envelope.
        """
        workers = self.translator_workers
        if self.pool_min is not None:
            workers = max(workers, self.pool_min)
        if self.pool_max is not None:
            workers = min(workers, self.pool_max)
        return workers

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
    #: device-churn snapshot (devices crashed/restarted, journal
    #: recoveries, ``records_completed`` ledger) when the run drove a
    #: :class:`~repro.net.FleetFaultInjector`; ``None`` otherwise
    fleet_stats: Optional[Dict[str, Any]] = None
    #: tier-fault snapshot when the run used a continuum topology
    topology_stats: Optional[Dict[str, Any]] = None

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
    if setup.system not in SYSTEMS:
        raise ValueError(f"unknown system {setup.system!r}; known: {SYSTEMS}")
    chaos_profile = setup.chaos_profile()
    topo_spec = setup.topology_spec()
    if chaos_profile is not None:
        if setup.system != "provlight" or normalize_transport(
            (capture_config or setup.capture_config()).transport
        ) != "mqttsn":
            raise ValueError(
                "chaos profiles target the provlight mqttsn server plane; "
                f"got system={setup.system!r} transport="
                f"{(capture_config or setup.capture_config()).transport!r}"
            )
        if chaos_profile.requires_backend_link():
            raise ValueError(
                "the harness backend is in-process (no server<->backend "
                "link); backend-outage/flap-backend events need a "
                "ServerFaultInjector wired with network= and backend_host="
            )
        if (
            any(e.kind == "kill-shard" for e in chaos_profile.events)
            and setup.broker_shards < 2
        ):
            raise ValueError(
                "kill-shard chaos needs broker_shards >= 2 (a surviving "
                "shard must take over the killed shard's sessions)"
            )
        if chaos_profile.requires_topology() and topo_spec is None:
            raise ValueError(
                "partition-tier/degrade-tier chaos events need a continuum "
                "topology (set ExperimentSetup.topology / --topology / "
                "REPRO_TOPOLOGY)"
            )
        if chaos_profile.requires_fleet():
            cap = capture_config or setup.capture_config()
            if cap.group_size:
                raise ValueError(
                    "crash-device/churn chaos needs group_size=0: a "
                    "partially filled group buffer lives only in memory, "
                    "so a crash would lose records the run already "
                    "counted — zero-loss accounting cannot hold"
                )
            if cap.qos < 1:
                raise ValueError(
                    "crash-device/churn chaos needs qos >= 1 (QoS 0 has "
                    "no delivery contract, so a crashed uplink silently "
                    "drops records and zero-loss accounting cannot hold)"
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

    backend_service = DfAnalyzerService()
    clients: List[Any] = []
    server: Optional[ProvLightServer] = None
    fleet: Optional[FleetFaultInjector] = None
    journal_tmp: Optional[str] = None
    if setup.system == "provlight":
        cap_config = capture_config or setup.capture_config()
        transport = normalize_transport(cap_config.transport)
        if transport == "mqttsn":
            server = ProvLightServer(
                net.hosts["cloud"], CallableBackend(backend_service.ingest),
                workers=setup.effective_translator_workers(),
                broker_shards=setup.broker_shards,
                broker_placement=setup.broker_placement,
                pool_min=setup.pool_min,
                pool_max=setup.pool_max,
            )
            endpoint = server.endpoint
        else:
            _, endpoint = deploy_capture_sink(
                transport, net.hosts["cloud"], backend_service.ingest,
                http_workers=max(8, setup.n_devices),
            )
        if chaos_profile is not None and chaos_profile.requires_fleet():
            # device churn only makes sense for clients that survive a
            # crash, so the run is auto-provisioned durable with
            # run-scoped journals (cleaned up after the run) unless the
            # caller already supplied a durable config
            fleet = FleetFaultInjector(env, topology=topology, seed=seed)
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

        HttpServer(net.hosts["cloud"], 5000, handler, workers=max(8, setup.n_devices))
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
        if server is not None and setup.with_translators:
            yield from server.add_translator(f"provlight/{device.name}/data")
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
        if fleet is not None:
            fleet_stats = fleet.stats()
            # the zero-loss ledger: proxy calls that ran to completion (see
            # repro.net.fleet.FleetClientProxy)
            fleet_stats["records_completed"] = sum(
                proxy.records_completed for proxy in clients
            )
    finally:
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
        topology_stats=topology.stats() if topology is not None else None,
    )


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
