"""scripts/event_mix.py on a shrunk benchmark workload."""

import importlib.util
import os

from repro.simkernel import Environment
from repro.simkernel.core import default_environment_class

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_script():
    path = os.path.join(REPO_ROOT, "scripts", "event_mix.py")
    spec = importlib.util.spec_from_file_location("event_mix", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_event_mix_kinds_sum_to_the_step_count():
    event_mix = _load_script()
    installed = default_environment_class()
    workload = event_mix.WORKLOADS["fanin-64"].shrunk()
    total, kinds = event_mix.count_steps(workload, seed=1)
    assert default_environment_class() is installed  # observer removed
    assert total > 0
    assert sum(kinds.values()) == total
    seen = {kind for kind, _detail in kinds}
    assert {"timer", "wakeup", "initialize"} <= seen
    assert seen <= {"timer", "wakeup", "initialize", "process-end",
                    "no-callback", "callback"}
    # the async capture charge is a timer, never a process
    assert kinds[("timer", "Cpu._finish_async")] > 0
    assert not any("cpu-async" in detail for _kind, detail in kinds)
    # datagrams reach the MQTT-SN client and broker through socket
    # callbacks: delivery shows only as timer steps, never as a wakeup
    assert not any(
        kind == "wakeup" and detail.startswith(("mqttsn-client-", "mqttsn-broker-"))
        for kind, detail in kinds
    )
    assert kinds[("timer", "DatagramReceiver._wake")] > 0
    lines = event_mix.report(total, kinds)
    assert lines[0] == f"{total} steps"


def test_kind_of_sorts_a_bare_event_and_a_timer():
    event_mix = _load_script()
    env = Environment()
    bare = env.event()
    bare.succeed()
    assert event_mix.kind_of(env._queue[0]) == ("no-callback", "Event")
    env.run()
    env.call_later(1.0, print)
    assert event_mix.kind_of(env._queue[0]) == ("timer", "print")
