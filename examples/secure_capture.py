"""Secure provenance transmission (the paper's future-work item).

The paper's conclusion: "in future work we will ... secure the data
transmission from the Edge devices to the provenance system."  This
example runs ProvLight with authenticated payload encryption between the
edge capture client and the cloud translator, then demonstrates that a
device publishing with the wrong key is rejected at the translator
without disturbing the pipeline.

Run with:  python examples/secure_capture.py
"""

import numpy as np

from repro.capture import CaptureConfig, create_client
from repro.core import (
    CallableBackend,
    Data,
    PayloadCipher,
    ProvLightServer,
    Task,
    Workflow,
    derive_key,
)
from repro.device import A8M3, XEON_GOLD_5220, Device
from repro.dfanalyzer import DfAnalyzerService
from repro.net import Network
from repro.simkernel import Environment


def main() -> None:
    shared_key = derive_key("edge-fleet-secret", salt="deployment-42")

    env = Environment()
    net = Network(env, seed=5)
    cloud = Device(env, XEON_GOLD_5220, name="cloud")
    net.add_host("cloud", device=cloud)
    backend = DfAnalyzerService(metrics=env.metrics)
    server = ProvLightServer(
        net.hosts["cloud"],
        CallableBackend(backend.ingest),
        cipher=PayloadCipher(shared_key, rng=np.random.default_rng(1)),
    )

    # the unified capture API threads the cipher through the config: the
    # same CaptureConfig would work over any registered transport
    trusted_dev = Device(env, A8M3, name="trusted-edge")
    net.add_host("trusted", device=trusted_dev)
    net.connect("trusted", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    trusted = create_client(
        trusted_dev, server.endpoint, "provlight/trusted",
        CaptureConfig(cipher=PayloadCipher(shared_key,
                                           rng=np.random.default_rng(2))),
    )

    rogue_dev = Device(env, A8M3, name="rogue-edge")
    net.add_host("rogue", device=rogue_dev)
    net.connect("rogue", "cloud", bandwidth_bps=1e9, latency_s=0.023)
    rogue = create_client(
        rogue_dev, server.endpoint, "provlight/rogue",
        CaptureConfig(cipher=PayloadCipher(derive_key("guessed-wrong"),
                                           rng=np.random.default_rng(3))),
    )

    def run_device(env, client, label):
        yield from client.setup()
        wf = Workflow(label, client)
        yield from wf.begin()
        task = Task(f"{label}-t0", wf)
        yield from task.begin([Data(f"{label}-in", label, {"reading": 21.5})])
        yield env.timeout(0.5)
        yield from task.end([Data(f"{label}-out", label, {"ok": True})])
        yield from wf.end(drain=True)

    def scenario(env):
        yield from server.pool.attach("provlight/#")
        yield from run_device(env, trusted, "trusted")
        yield from run_device(env, rogue, "rogue")
        yield env.timeout(10)

    env.process(scenario(env))
    env.run()

    print("=== secure provenance transmission ===")
    print(f"encryption overhead per message : "
          f"{PayloadCipher(shared_key).overhead_bytes} bytes (nonce + MAC)")
    print(f"records accepted from trusted   : "
          f"{backend.records_ingested.count}")
    print(f"payloads rejected (bad key)     : "
          f"{server.front.malformed.count}")
    tags = sorted({r['dataflow_tag'] for r in backend.query('tasks').rows()})
    print(f"dataflows stored                : {tags}")
    assert tags == ["trusted"], "rogue data must never reach the backend"
    print("\nthe rogue device's records were authenticated-rejected at the "
          "translator; the trusted pipeline was unaffected.")


if __name__ == "__main__":
    main()
