"""Tests for the experiment driver and table/figure harness."""

import pytest

from repro.harness import (
    ExperimentSetup,
    TableResult,
    measure_overhead,
    run_capture_experiment,
    run_null_baseline,
)
from repro.workloads import SyntheticWorkloadConfig

FAST = SyntheticWorkloadConfig(number_of_tasks=10, task_duration_s=0.1,
                               attributes_per_task=10)


def test_null_baseline_matches_nominal():
    elapsed = run_null_baseline(FAST, seed=1)
    assert elapsed == pytest.approx(1.0, rel=0.05)


def test_null_baseline_deterministic_per_seed():
    assert run_null_baseline(FAST, seed=3) == run_null_baseline(FAST, seed=3)
    assert run_null_baseline(FAST, seed=3) != run_null_baseline(FAST, seed=4)


def test_run_capture_experiment_provlight():
    outcome = run_capture_experiment(ExperimentSetup(system="provlight"), FAST, seed=1)
    assert len(outcome.elapsed) == 1
    assert outcome.elapsed[0] > 1.0  # capture adds time
    assert outcome.backend_records > 0  # records reached the backend
    assert outcome.metrics[0].capture_cpu_utilization > 0


def test_run_capture_experiment_unknown_system():
    with pytest.raises(ValueError):
        run_capture_experiment(ExperimentSetup(system="zsystem"), FAST, seed=1)


def test_setup_rejects_a_transport_without_a_sink():
    from repro.capture import register_transport, unregister_transport

    register_transport("test-sinkless", lambda *args: None)
    try:
        with pytest.raises(ValueError, match="ExperimentSetup: no capture sink"):
            ExperimentSetup(transport="test-sinkless")
    finally:
        unregister_transport("test-sinkless")


def test_measure_overhead_provlight_is_small():
    # 0.1 s tasks: per-call cost ~3.9 ms => ~8% overhead expected here
    result = measure_overhead(ExperimentSetup(system="provlight"), FAST, repetitions=2)
    assert 0.0 < result.ci.mean < 0.12
    assert len(result.overheads) == 2


def test_overhead_ci_is_computed_once_per_result(monkeypatch):
    from repro.harness.experiments import OverheadResult
    from repro.metrics import stats

    calls = []

    def counting_mean_ci(values, *args, **kwargs):
        calls.append(list(values))
        return real_mean_ci(values, *args, **kwargs)

    real_mean_ci = stats.mean_ci
    monkeypatch.setattr(stats, "mean_ci", counting_mean_ci)
    result = OverheadResult(setup=ExperimentSetup(), config=FAST,
                            overheads=[0.01, 0.02, 0.04])
    first, second = result.ci, result.ci
    assert first is second
    assert calls == [[0.01, 0.02, 0.04]]
    assert first == real_mean_ci([0.01, 0.02, 0.04])


def test_measure_overhead_ordering_of_systems():
    means = {}
    for system in ("provlight", "dfanalyzer", "provlake"):
        result = measure_overhead(ExperimentSetup(system=system), FAST,
                                  repetitions=1, keep_outcomes=False)
        means[system] = result.ci.mean
    assert means["provlight"] < means["dfanalyzer"] < means["provlake"]


@pytest.mark.parametrize("system,group_size", [
    ("dfanalyzer", 0), ("provlake", 0), ("provlake", 5),
])
def test_baseline_systems_ingest_every_record(system, group_size):
    # 2 devices x (2 workflow events + 10 x task begin/end) = 44 records
    setup = ExperimentSetup(system=system, n_devices=2, group_size=group_size)
    outcome = run_capture_experiment(setup, FAST, seed=1)
    assert outcome.backend_records == 44


def test_failed_churn_run_removes_its_journal_dir(monkeypatch, tmp_path):
    import tempfile

    from repro.harness import experiments

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    journal_dirs = []

    def failing_workload(env, client, config, rng, result):
        yield env.timeout(0.1)
        journal_dirs.extend(tmp_path.glob("repro-fleet-journals-*"))
        raise RuntimeError("workload failed mid-run")

    monkeypatch.setattr(experiments, "synthetic_workload", failing_workload)
    setup = ExperimentSetup(system="provlight", n_devices=2, qos=1,
                            chaos="churn@0.5:0.5:0.2")
    with pytest.raises(RuntimeError, match="mid-run"):
        run_capture_experiment(setup, FAST, seed=1)
    assert journal_dirs  # the run did provision its journals
    assert list(tmp_path.glob("repro-fleet-journals-*")) == []


def test_multi_device_experiment():
    setup = ExperimentSetup(system="provlight", n_devices=3)
    outcome = run_capture_experiment(setup, FAST, seed=2)
    assert len(outcome.elapsed) == 3
    assert len(outcome.metrics) == 3


def test_mean_metric_reader():
    result = measure_overhead(ExperimentSetup(system="provlight"), FAST, repetitions=2)
    util = result.mean_metric(lambda m: m.capture_cpu_utilization)
    assert util > 0


def test_setup_describe():
    setup = ExperimentSetup(system="provlake", bandwidth="25Kbit", group_size=10,
                            n_devices=4)
    described = setup.describe()
    assert "provlake" in described and "25Kbit" in described
    assert "group=10" in described and "devices=4" in described
    described = ExperimentSetup(broker_placement="p2c", pool_min=2,
                                pool_max=4).describe()
    assert "placement=p2c" in described and "pool=2..4" in described


def test_table_result_checks():
    result = TableResult("t", "T", "text", [], checks=[("a", True), ("b", False)])
    assert not result.ok
    assert result.failed_checks() == ["b"]
    assert "FAILED" in result.summary()
    good = TableResult("t", "T", "text", [], checks=[("a", True)])
    assert good.ok and "OK" in good.summary()


def test_default_repetitions_env(monkeypatch):
    from repro.harness import default_repetitions

    monkeypatch.delenv("REPRO_REPETITIONS", raising=False)
    assert default_repetitions() == 10
    assert default_repetitions(fallback=3) == 3
    monkeypatch.setenv("REPRO_REPETITIONS", "7")
    assert default_repetitions() == 7
    monkeypatch.setenv("REPRO_REPETITIONS", "0")
    assert default_repetitions() == 1


def test_pool_bounds_clamp_the_static_worker_default(monkeypatch):
    # --pool-min/--pool-max express the elastic envelope: the static
    # default of 8 workers must be clamped into it, not refuse to start
    setup = ExperimentSetup(system="provlight", pool_min=2, pool_max=4)
    assert setup.translator_workers == 8  # the declared default is kept
    assert setup.server_config().workers == 8
    assert setup.server_config().pool_size == 4
    assert ExperimentSetup(
        system="provlight", translator_workers=1, pool_min=2
    ).server_config().pool_size == 2
    outcome = run_capture_experiment(setup, FAST, seed=1)
    assert outcome.backend_records > 0


@pytest.mark.parametrize("kwargs,named", [
    ({"pool_min": 5, "pool_max": 2}, ["pool_min"]),
    ({"broker_shards": 0, "broker_placement": "rr"}, ["broker_shards"]),
    ({"broker_placement": "rr"}, ["broker_placement"]),
    ({"pool_min": 0}, ["pool_min"]),
    ({"translator_workers": 0}, ["workers"]),
    ({"chaos": "nonsense"}, ["'nonsense'"]),
    ({"topology": "edge:zero"}, ["zero"]),
    ({"bandwidth": "fast"}, ["rate", "'fast'"]),
    ({"delay": "soon"}, ["delay", "'soon'"]),
    ({"transport": "pigeon"}, ["transport", "'pigeon'"]),
    ({"system": "zsystem"}, ["system", "'zsystem'"]),
    ({"n_devices": 0}, ["n_devices"]),
    ({"bandwidth": "0bit"}, ["bandwidth", "'0bit'"]),
    ({"n_devices": 2.5}, ["n_devices", "2.5"]),
    ({"n_devices": True}, ["n_devices", "True"]),
], ids=["pool-bounds", "shards-and-placement", "placement", "pool-min",
        "workers", "chaos", "topology", "bandwidth", "delay", "transport",
        "system", "n-devices", "zero-bandwidth", "fractional-n-devices",
        "bool-n-devices"])
def test_every_knob_is_validated_at_construction(kwargs, named):
    with pytest.raises(ValueError) as excinfo:
        ExperimentSetup(**kwargs)
    for fragment in ["ExperimentSetup", *named]:
        assert fragment in str(excinfo.value)


def test_measure_overhead_needs_one_repetition():
    with pytest.raises(ValueError, match="repetitions"):
        measure_overhead(ExperimentSetup(), FAST, repetitions=0)


def test_bad_repetitions_env_names_the_variable(monkeypatch):
    from repro.harness import default_repetitions

    monkeypatch.setenv("REPRO_REPETITIONS", "abc")
    with pytest.raises(ValueError, match="REPRO_REPETITIONS"):
        default_repetitions()


def test_runner_rejects_unknown_target():
    from repro.harness import run_targets

    with pytest.raises(SystemExit):
        run_targets(["tableZ"])


def test_runner_runs_single_target(capsys):
    import os

    os.environ["REPRO_REPETITIONS"] = "1"
    try:
        from repro.harness import run_targets

        results = run_targets(["table8"], repetitions=1)
    finally:
        del os.environ["REPRO_REPETITIONS"]
    assert "table8" in results
    out = capsys.readouterr().out
    assert "Table VIII" in out


def test_run_capture_experiment_coap_transport():
    """The declarative transport knob deploys the matching CoAP sink."""
    setup = ExperimentSetup(system="provlight", transport="coap")
    outcome = run_capture_experiment(setup, FAST, seed=1)
    assert outcome.elapsed[0] > 1.0
    assert outcome.backend_records > 0
    assert "transport=coap" in setup.describe()


def test_run_capture_experiment_http_transport_is_blocking():
    """ProvLight payloads over the blocking-HTTP collector: records
    still land in the backend, at baseline-like blocking overhead."""
    async_out = run_capture_experiment(
        ExperimentSetup(system="provlight"), FAST, seed=1)
    http_out = run_capture_experiment(
        ExperimentSetup(system="provlight", transport="http"), FAST, seed=1)
    assert http_out.backend_records == async_out.backend_records > 0
    assert http_out.elapsed[0] > async_out.elapsed[0]


def test_run_capture_experiment_capture_config_override():
    from repro.capture import CaptureConfig

    setup = ExperimentSetup(system="provlight")
    outcome = run_capture_experiment(
        setup, FAST, seed=1, capture_config=CaptureConfig(group_size=5))
    assert outcome.backend_records > 0


def test_experiment_setup_capture_config_round_trip():
    setup = ExperimentSetup(system="provlight", group_size=7, compress=False,
                            qos=1, transport="coap")
    config = setup.capture_config()
    assert (config.transport, config.group_size, config.compress, config.qos) == (
        "coap", 7, False, 1)


@pytest.mark.parametrize("system,transport", [
    ("provlight", "mqttsn"),
    ("provlight", "http"),
    ("provlight", "coap"),
    ("dfanalyzer", "mqttsn"),
])
def test_finished_run_releases_its_backend(monkeypatch, system, transport):
    """The run's world is cyclic; closing its sink frees the backend by
    refcount, so its decoded records do not wait for a gen-2 collection."""
    import gc
    import weakref

    from repro.dfanalyzer import DfAnalyzerService
    from repro.harness import experiments

    services = []

    class TrackedService(DfAnalyzerService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            services.append(weakref.ref(self))

    monkeypatch.setattr(experiments, "DfAnalyzerService", TrackedService)
    gc.disable()
    try:
        outcome = run_capture_experiment(
            ExperimentSetup(system=system, transport=transport), FAST, seed=1)
        assert outcome.backend_records > 0
        assert len(services) == 1 and services[0]() is None
    finally:
        gc.enable()
