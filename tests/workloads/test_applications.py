"""Tests for the FL / sensor / imaging application workloads."""

import numpy as np
import pytest

from repro.baselines import NullCaptureClient
from repro.core import CallableBackend, ProvLightClient, ProvLightServer
from repro.device import A8M3, Device
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import (
    FederatedConfig,
    ImagingConfig,
    LogisticModel,
    SensorConfig,
    federated_training,
    imaging_pipeline,
    make_client_datasets,
    sensor_pipeline,
)


# -- logistic model ----------------------------------------------------------


def test_logistic_model_learns_separable_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    w = np.array([1.0, -2.0, 0.5, 3.0])
    y = (X @ w > 0).astype(float)
    model = LogisticModel(4)
    initial_loss = model.loss(X, y)
    for _ in range(50):
        model.gradient_step(X, y, lr=0.8)
    assert model.loss(X, y) < initial_loss / 2
    assert model.accuracy(X, y) > 0.9


def test_logistic_model_clone_is_independent():
    model = LogisticModel(3)
    clone = model.clone()
    clone.weights += 1.0
    assert not np.allclose(model.weights, clone.weights)


def test_client_datasets_shapes():
    config = FederatedConfig(n_clients=3, samples_per_client=40, n_features=5)
    datasets = make_client_datasets(config)
    assert len(datasets) == 3
    for X, y in datasets:
        assert X.shape == (40, 5)
        assert set(np.unique(y)) <= {0.0, 1.0}


# -- federated training --------------------------------------------------------


def fl_world(config):
    env = Environment()
    net = Network(env, seed=9)
    net.add_host("cloud")
    sink = []
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(sink.extend))
    captures = []
    for i in range(config.n_clients):
        dev = Device(env, A8M3, name=f"fl-dev-{i}")
        net.add_host(f"edge-{i}", device=dev)
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.023)
        captures.append(
            ProvLightClient(dev, server.endpoint, f"provlight/fl/{i}")
        )
    return env, net, server, captures, sink


def test_federated_training_improves_accuracy_and_captures():
    config = FederatedConfig(n_clients=2, rounds=3, local_epochs=2,
                             epoch_duration_s=0.05)
    env, net, server, captures, sink = fl_world(config)
    history = {}

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from federated_training(env, captures, config, history)
        yield env.timeout(60)

    env.process(scenario(env))
    env.run()
    assert history["final_accuracy"] > 0.7
    # records: per client per round per epoch: begin+end tasks
    task_records = [r for r in sink if r.get("type") == "task"]
    assert len(task_records) == 2 * 2 * 3 * 2  # begin+end * clients * rounds * epochs


def test_federated_capture_answers_paper_queries():
    from repro.dfanalyzer import DfAnalyzerService, latest_epoch_metrics, top_k_by_metric

    config = FederatedConfig(n_clients=2, rounds=2, local_epochs=3,
                             epoch_duration_s=0.02)
    env, net, server, captures, sink = fl_world(config)
    service = DfAnalyzerService()
    server.backend = CallableBackend(service.ingest)
    history = {}

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from federated_training(env, captures, config, history)
        yield env.timeout(60)

    env.process(scenario(env))
    env.run()
    best = top_k_by_metric(service, "fl-client-0", "accuracy", ["lr", "epoch"], k=3)
    assert len(best) == 3
    assert all(b["lr"] == config.learning_rate for b in best)
    latest = latest_epoch_metrics(service, "fl-client-0", ["lr"],
                                  metrics=("elapsed_time", "loss"))
    assert latest[0]["epoch"] == config.local_epochs - 1
    assert latest[0]["loss"] is not None


def test_federated_requires_matching_client_count():
    config = FederatedConfig(n_clients=3)
    env = Environment()
    dev = Device(env, A8M3)
    with pytest.raises(ValueError):
        list(federated_training(env, [NullCaptureClient(dev)], config))


def test_fedavg_weighted_mean():
    from repro.workloads.federated import _fedavg

    updates = [np.array([1.0, 1.0]), np.array([3.0, 3.0])]
    merged = _fedavg(updates, [1, 3])
    assert np.allclose(merged, [2.5, 2.5])


# -- sensors ---------------------------------------------------------------


def test_sensor_pipeline_runs_and_reports():
    env = Environment()
    dev = Device(env, A8M3)
    client = NullCaptureClient(dev)
    result = {}
    env.process(sensor_pipeline(env, client, SensorConfig(windows=5), result))
    env.run()
    assert result["windows"] == 5
    assert len(result["reports"]) == 5
    # 5 transformations x 2 records per window + workflow begin/end
    assert client.records_captured.count == 5 * 5 * 2 + 2


def test_sensor_pipeline_detects_injected_anomaly():
    env = Environment()
    dev = Device(env, A8M3)
    client = NullCaptureClient(dev)
    result = {}
    # enough windows that glitches occur with the seeded rng
    env.process(sensor_pipeline(env, client, SensorConfig(windows=20, seed=13), result))
    env.run()
    assert isinstance(result["anomalous_windows"], list)


def test_sensor_lineage_chain_through_backend():
    from repro.dfanalyzer import DfAnalyzerService, lineage_of

    env = Environment()
    net = Network(env, seed=3)
    dev = Device(env, A8M3)
    net.add_host("edge", device=dev)
    net.add_host("cloud")
    net.connect("edge", "cloud", bandwidth_bps=1e9, latency_s=0.01)
    service = DfAnalyzerService()
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(service.ingest))
    client = ProvLightClient(dev, server.endpoint, "provlight/sensors")

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from sensor_pipeline(env, client, SensorConfig(windows=2))
        yield env.timeout(60)

    env.process(scenario(env))
    env.run()
    chain = lineage_of(service, "sensors", "rep-1")
    assert chain == ["det-1", "agg-1", "clean-1", "raw-1"]


# -- imaging ---------------------------------------------------------------


def test_mean_filter_smooths():
    rng = np.random.default_rng(1)
    noisy = rng.normal(size=(16, 16))
    smoothed = np.std(
        __import__("repro.workloads.imaging", fromlist=["mean_filter"]).mean_filter(noisy)
    )
    assert smoothed < np.std(noisy)


def test_mean_filter_preserves_constant_images():
    image = np.full((8, 8), 3.25)
    from repro.workloads import mean_filter

    assert np.allclose(mean_filter(image), image)


def test_imaging_pipeline_scores_blobs():
    env = Environment()
    dev = Device(env, A8M3)
    client = NullCaptureClient(dev)
    result = {}
    env.process(imaging_pipeline(env, client, ImagingConfig(n_images=4), result))
    env.run()
    assert len(result["scores"]) == 4
    assert all(0.0 <= s <= 1.0 for s in result["scores"])
    # 5 transformations x 2 + workflow begin/end
    assert client.records_captured.count == 4 * 5 * 2 + 2
