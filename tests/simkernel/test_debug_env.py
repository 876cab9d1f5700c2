"""DebugEnvironment: one test per runtime hazard kind, plus install hooks.

The static lint (:mod:`repro.analysis`) catches source-visible hazards;
these tests pin the *runtime* half of the tentpole: every kernel-misuse
class the debug environment detects, the install/uninstall construction
redirect behind ``pytest --sim-debug``, behavioral equivalence for
correct programs, and a regression drive of the backend timeout-race
defuse path (the one pre-existing spot where a failed event is
intentionally abandoned).
"""

import pytest

from repro.core import HttpBackend, RetryPolicy
from repro.http import HttpResponse, HttpServer
from repro.net import Network
from repro.simkernel import (
    DebugEnvironment,
    Environment,
    SimHazardError,
    debug_environment_installed,
    default_environment_class,
    install_debug_environment,
    set_default_environment_class,
    uninstall_debug_environment,
)
from repro.simkernel.events import NORMAL


@pytest.fixture
def restore_default_env():
    """Save/restore the construction override around install tests, so
    running the whole suite under ``--sim-debug`` is unaffected."""
    previous = default_environment_class()
    yield
    set_default_environment_class(previous)


# ------------------------------------------------------------ hazard kinds
def test_cross_env_yield_is_detected():
    env_a = DebugEnvironment()
    env_b = DebugEnvironment()

    def confused(env):
        yield env_b.timeout(1.0)  # wrong environment: waiter never resumes

    env_a.process(confused(env_a), name="confused")
    with pytest.raises(SimHazardError, match="cross-env-yield"):
        env_a.run()
    assert [h.kind for h in env_a.hazards] == ["cross-env-yield"]


def test_cross_env_schedule_is_detected():
    env_a = DebugEnvironment()
    env_b = DebugEnvironment()
    stray = env_a.event()
    with pytest.raises(SimHazardError, match="cross-env-schedule"):
        env_b.schedule(stray)
    assert [h.kind for h in env_b.hazards] == ["cross-env-schedule"]


def test_cross_env_run_until_is_detected():
    env_a = DebugEnvironment()
    env_b = DebugEnvironment()
    with pytest.raises(SimHazardError, match="cross-env-run"):
        env_b.run(until=env_a.timeout(1.0))
    assert [h.kind for h in env_b.hazards] == ["cross-env-run"]


def test_double_schedule_is_detected():
    env = DebugEnvironment()
    event = env.event()
    env.schedule(event)
    with pytest.raises(SimHazardError, match="double-schedule"):
        env.schedule(event)
    assert [h.kind for h in env.hazards] == ["double-schedule"]


def test_double_schedule_of_a_timeout_is_detected():
    env = DebugEnvironment()
    timeout = env.timeout(1.0)
    with pytest.raises(SimHazardError, match="double-schedule"):
        env.schedule(timeout)
    assert [h.kind for h in env.hazards] == ["double-schedule"]


def test_schedule_after_processed_is_detected():
    env = DebugEnvironment()
    event = env.event()
    event.succeed("done")
    env.run()  # callbacks run; the event is spent
    with pytest.raises(SimHazardError, match="schedule-after-processed"):
        env.schedule(event)


def test_non_monotonic_schedule_is_detected():
    env = DebugEnvironment()
    env.run(until=1.0)
    with pytest.raises(SimHazardError, match="non-monotonic"):
        env.schedule(env.event(), delay=-0.5)
    # the established API error for a negative timeout is preserved
    with pytest.raises(ValueError):
        env.timeout(-1)  # lint: disable=dropped-event(the call must raise before any event exists)


def test_nan_schedule_and_nan_pop_are_non_monotonic():
    env = DebugEnvironment()
    env.run(until=1.0)
    with pytest.raises(SimHazardError, match="non-monotonic"):
        env.schedule(env.event(), delay=float("nan"))
    # a NaN time that reached the heap by hand is caught when popped,
    # for a call_later timer entry as for an event
    fired = []
    env._queue.append((float("nan"), NORMAL, 0, fired.append, ("nan",)))
    with pytest.raises(SimHazardError, match="non-monotonic"):
        env.step()
    assert fired == [] and env.now == 1.0
    assert [h.kind for h in env.hazards] == ["non-monotonic"] * 2


def test_timer_popped_behind_the_clock_is_non_monotonic():
    env = DebugEnvironment()
    env.run(until=2.0)
    fired = []
    env._queue.append((1.0, NORMAL, 0, fired.append, ("late",)))
    with pytest.raises(SimHazardError, match="non-monotonic"):
        env.step()
    assert fired == []


def test_unretrieved_failure_is_recorded_and_reraises_the_original():
    env = DebugEnvironment()
    event = env.event()
    event.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me") as excinfo:
        env.run()
    assert [h.kind for h in env.hazards] == ["unretrieved-failure"]
    # attributable: the original exception carries the hazard as a note
    assert any("sim-debug" in note for note in excinfo.value.__notes__)


def test_defused_failure_is_not_a_hazard():
    env = DebugEnvironment()
    event = env.event()
    event.fail(RuntimeError("intentional"))
    event.defused = True
    env.run()
    assert env.hazards == []


def test_double_trigger_raises_in_the_base_kernel():
    """The Event.succeed guard holds even without the debug environment."""
    env = DebugEnvironment()
    target = env.event()
    target.succeed(5)
    with pytest.raises(RuntimeError, match="already been triggered"):
        target.succeed(5)


# ------------------------------------------------------- install/uninstall
def test_install_redirects_bare_environment_construction(restore_default_env):
    install_debug_environment()
    assert debug_environment_installed()
    env = Environment()
    assert type(env) is DebugEnvironment
    assert env.hazards == []  # subclass __init__ ran
    uninstall_debug_environment()
    assert not debug_environment_installed()
    assert type(Environment()) is Environment


def test_explicit_subclass_construction_is_untouched(restore_default_env):
    install_debug_environment()

    class CustomEnv(Environment):
        pass

    assert type(CustomEnv()) is CustomEnv  # redirect only hits the base class


def test_set_default_rejects_non_environment(restore_default_env):
    with pytest.raises(TypeError):
        set_default_environment_class(int)


# ------------------------------------------------- behavioral equivalence
def simulate(env):
    """A small multi-process program touching timeouts, events, any_of."""
    trace = []

    def producer(env, gate):
        yield env.timeout(1.0)
        gate.succeed("payload")
        trace.append(("produced", env.now))

    def consumer(env, gate):
        yield env.any_of((gate, env.timeout(5.0)))
        trace.append(("consumed", env.now, gate.value))

    gate = env.event()
    env.process(producer(env, gate), name="producer")
    env.process(consumer(env, gate), name="consumer")
    env.run()
    return trace, env.now


def test_debug_environment_is_behaviorally_equivalent(restore_default_env):
    uninstall_debug_environment()  # force a true base environment
    base_trace, base_now = simulate(Environment())
    debug_env = DebugEnvironment()
    debug_trace, debug_now = simulate(debug_env)
    assert debug_trace == base_trace
    assert debug_now == base_now
    assert debug_env.hazards == []


# ------------------------------------------- regression: timeout-race path
def test_backend_timeout_race_defuse_is_hazard_free():
    """HttpBackend._post abandons a timed-out request process: it defuses
    the still-parked process, interrupts it, and poisons the connection.
    Under DebugEnvironment this whole dance must produce zero hazards —
    the interrupt failure is defused *before* it completes."""
    env = DebugEnvironment()
    net = Network(env, seed=5)
    net.add_host("cloud")
    net.add_host("api")
    net.connect("cloud", "api", bandwidth_bps=1e9, latency_s=0.002)

    def slow_handler(request):
        yield env.timeout(5.0)
        return HttpResponse(status=201, reason="finally")

    HttpServer(net.hosts["api"], 5000, slow_handler, workers=2)
    backend = HttpBackend(
        net.hosts["cloud"], ("api", 5000), timeout_s=0.5,
        retry=RetryPolicy(max_attempts=1),
    )

    def scenario(env):
        yield from backend.ingest({"x": 1})

    env.process(scenario(env), name="scenario")
    env.run(until=60)
    assert backend.spilled.count >= 1  # the timeout fired and was handled
    assert env.hazards == []
