"""Federated Learning with provenance capture (the paper's use case).

Four simulated A8-M3 edge devices train a shared logistic-regression
model with FedAvg; every local epoch is captured with ProvLight.  After
training we answer the paper's two Section-I queries against the
DfAnalyzer backend:

  (i)  elapsed time and training loss in the latest epoch, per
       hyperparameter combination;
  (ii) hyperparameters of the 3 best accuracy values.

Run with:  python examples/federated_learning.py
"""

from repro.core import CallableBackend, ProvLightClient, ProvLightServer
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.dfanalyzer import DfAnalyzerService, latest_epoch_metrics, top_k_by_metric
from repro.net import Network
from repro.simkernel import Environment
from repro.workloads import FederatedConfig, federated_training


def main() -> None:
    config = FederatedConfig(
        n_clients=4, rounds=4, local_epochs=2,
        learning_rate=0.5, epoch_duration_s=0.3,
    )

    env = Environment()
    net = Network(env, seed=7)
    cloud = Device(env, XEON_GOLD_5220, name="fl-server")
    net.add_host("cloud", device=cloud)
    backend = DfAnalyzerService()
    server = ProvLightServer(net.hosts["cloud"], CallableBackend(backend.ingest))

    captures = []
    for i in range(config.n_clients):
        device = Device(env, A8M3, name=f"fl-client-{i}")
        net.add_host(f"edge-{i}", device=device)
        net.connect(f"edge-{i}", "cloud", bandwidth_bps=1e9, latency_s=0.023)
        captures.append(ProvLightClient(device, server.endpoint, f"provlight/fl/{i}"))

    history = {}

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from federated_training(env, captures, config, history)
        yield env.timeout(30)  # let async provenance drain

    env.process(scenario(env))
    env.run()

    print("=== federated learning with ProvLight provenance ===")
    print(f"clients={config.n_clients} rounds={config.rounds} "
          f"local_epochs={config.local_epochs} lr={config.learning_rate}")
    for entry in history["rounds"]:
        print(f"  round {entry['round']}: loss={entry['loss']:.4f} "
              f"accuracy={entry['accuracy']:.3f}")
    print(f"final global accuracy: {history['final_accuracy']:.3f}")
    print(f"provenance records stored: {backend.records_ingested.count}")

    print("\nquery (i): latest-epoch metrics per hyperparameter combination")
    for wf in sorted({r["dataflow_tag"] for r in backend.query("tasks").rows()}):
        rows = latest_epoch_metrics(backend, wf, ["lr", "local_epochs"],
                                    metrics=("elapsed_time", "loss"))
        for row in rows:
            print(f"  {wf}: lr={row['lr']} epochs={row['local_epochs']} "
                  f"last_epoch={row['epoch']} loss={row['loss']:.4f} "
                  f"elapsed={row['elapsed_time']:.2f}s")

    print("\nquery (ii): hyperparameters of the 3 best accuracies (client 0)")
    best = top_k_by_metric(backend, "fl-client-0", "accuracy",
                           ["lr", "round", "epoch"], k=3)
    for row in best:
        print(f"  accuracy={row['accuracy']:.3f} at lr={row['lr']} "
              f"round={row['round']} epoch={row['epoch']}")


if __name__ == "__main__":
    main()
