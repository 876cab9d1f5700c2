"""scripts/event_mix.py on a shrunk benchmark workload."""

import importlib.util
import os
from collections import Counter
from functools import partial

import pytest

from repro.simkernel import Environment, Mailbox
from repro.simkernel.core import default_environment_class

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: seed-1 kernel step totals of the shrunk workloads.  A refactor that
#: must leave the simulation alone must leave these alone: any step
#: added, dropped or moved between kinds changes a total or a kind.
#: The capture sender, the translator workers, cluster relays and the
#: dispatcher's unpin are callbacks and timers, not processes.
#: ``http-fanin`` counts one ``HttpSession._watchdog`` step per device:
#: each pooled connection's response watchdog fires once, after the
#: workflow ended, and finds no request waiting.  The HTTP server reads
#: its connections from TCP callbacks, so no step starts an
#: ``http-*-conn`` process (there used to be one per connection).
SHRUNK_STEPS = {"fanin-64": 2340, "durable-churn": 3697, "http-fanin": 1017}


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
    assert total == SHRUNK_STEPS["fanin-64"]
    assert sum(kinds.values()) == total
    seen = {kind for kind, _detail in kinds}
    assert {"timer", "wakeup", "initialize"} <= seen
    assert seen <= {"timer", "wakeup", "initialize", "process-end",
                    "no-callback", "callback"}
    # the async capture charge is a timer, never a process
    assert kinds[("timer", "_Charge._finish")] > 0
    assert not any("cpu-async" in detail for _kind, detail in kinds)
    # datagrams reach the MQTT-SN client and broker through socket
    # callbacks: delivery shows only as timer steps, never as a wakeup
    assert not any(
        kind == "wakeup" and detail.startswith(("mqttsn-client-", "mqttsn-broker-"))
        for kind, detail in kinds
    )
    # each mailbox hand-off names the consumer it wakes
    for consumer in ("CaptureClient._on_item", "_TranslatorWorker._on_item",
                     "MqttSnClient._on_datagram", "MqttSnBroker._on_datagram"):
        assert kinds[("timer", f"Mailbox._wake -> {consumer}")] > 0
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


def test_kind_of_names_the_consumer_a_mailbox_wakes():
    event_mix = _load_script()
    env = Environment()
    box = Mailbox(env)
    box.on_item(partial(print, "item"))
    box.put_nowait("x")
    assert event_mix.kind_of(env._queue[0]) == ("timer", "Mailbox._wake -> print")
    env.run()
    box.put_nowait("y")
    box.on_item(Counter().update)
    assert event_mix.kind_of(env._queue[0]) == ("timer", "Mailbox._wake -> Counter.update")


#: ``TcpConnection._pump_timer`` steps of the shrunk ``http-fanin`` at
#: seed 1 while every HTTP send deferred its pump
DEFERRED_PUMP_TIMERS = 144


def test_http_fanin_runs_no_tcp_or_accept_process():
    """A TCP connection's pump, retransmission and handshake timers and
    the HTTP server's accept and receive callbacks are heap timers, and
    a blocking capture POSTs from the workflow's own process: no step
    wakes, starts or ends a process for any of them.  HTTP sends in tail
    position pump in place, so fewer pump timers run."""
    event_mix = _load_script()
    total, kinds = event_mix.count_steps(
        event_mix.WORKLOADS["http-fanin"].shrunk(), seed=1
    )
    assert total == SHRUNK_STEPS["http-fanin"]

    def tcp_or_accept(detail):
        name = detail.split(" <- ")[0]
        return name.startswith(
            ("tcp-pump-", "tcp-rtx-", "tcp-handshake-timer", "http-capture-post")
        ) or (name.startswith("http-") and name.endswith(("-accept", "-conn")))

    offending = [
        (kind, detail) for kind, detail in kinds
        if kind in ("wakeup", "initialize", "process-end") and tcp_or_accept(detail)
    ]
    assert offending == []
    tcp_timers = sum(
        count for (kind, detail), count in kinds.items()
        if kind == "timer" and detail.startswith("TcpConnection.")
    )
    assert tcp_timers > 0
    assert 0 < kinds[("timer", "TcpConnection._pump_timer")] < DEFERRED_PUMP_TIMERS
    # one response watchdog per device's connection, never one per request
    assert kinds[("timer", "HttpSession._watchdog")] == 3
    # the accept callback runs on the listener backlog's zero-delay wake,
    # and the server reads each request on an on_recv timer
    assert kinds[("timer", "Mailbox._wake -> HttpServer._on_accept")] == 3
    assert kinds[("timer", "_Connection.received")] > 0


#: processes the record path ran before its consumers became callbacks
#: and timers (digit runs read ``N``, as in process names)
RECORD_PATH_PROCESSES = ("capture-sender-", "translator-N", "relay-deliver-",
                         "dispatcher-unpin", "cluster-rehome")


@pytest.mark.parametrize("workload", ["fanin-64", "durable-churn"])
def test_mqttsn_record_path_runs_no_process(workload):
    """A record crosses the capture sender, the broker cluster and a
    translator worker on callbacks and timers: no step wakes, starts or
    ends a process for any of them."""
    event_mix = _load_script()
    total, kinds = event_mix.count_steps(event_mix.WORKLOADS[workload].shrunk(), seed=1)
    assert total == SHRUNK_STEPS[workload]
    offending = [
        (kind, detail) for kind, detail in kinds
        if kind in ("wakeup", "initialize", "process-end")
        and detail.split(" <- ")[0].startswith(RECORD_PATH_PROCESSES)
    ]
    assert offending == []
    assert kinds[("timer", "Mailbox._wake -> CaptureClient._on_item")] > 0
    assert kinds[("timer", "Mailbox._wake -> _TranslatorWorker._on_item")] > 0


def test_durable_churn_step_total_is_pinned():
    event_mix = _load_script()
    total, kinds = event_mix.count_steps(
        event_mix.WORKLOADS["durable-churn"].shrunk(), seed=1
    )
    assert total == SHRUNK_STEPS["durable-churn"]
    assert sum(kinds.values()) == total


def test_top_limits_the_entries_printed_per_kind(monkeypatch, capsys):
    event_mix = _load_script()
    kinds = Counter({("timer", f"fn{i}"): 10 - i for i in range(10)})
    kinds[("wakeup", "p <- Event")] = 5
    total = sum(kinds.values())

    def entries(lines):
        return [line for line in lines[1:] if line.startswith(" " * 10)]

    assert len(entries(event_mix.report(total, kinds))) == event_mix.TOP + 1
    assert len(entries(event_mix.report(total, kinds, top=2))) == 3
    assert len(entries(event_mix.report(total, kinds, top=0))) == 11

    # the command line reaches report(); count_steps is stubbed out
    monkeypatch.setattr(event_mix, "count_steps", lambda workload, seed: (total, kinds))
    assert event_mix.main(["fanin-64", "--top", "0"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == event_mix.report(total, kinds, top=0)
    assert event_mix.main(["fanin-64"]) == 0
    assert capsys.readouterr().out.splitlines() == event_mix.report(total, kinds)
    with pytest.raises(SystemExit):
        event_mix.main(["fanin-64", "--top", "-1"])
