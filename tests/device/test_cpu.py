"""Tests for the CPU model."""

import pytest

from repro.device import A8M3, XEON_GOLD_5220, Cpu, DeviceSpec
from repro.simkernel import Environment, Interrupt, Process


def make_cpu(spec=A8M3):
    env = Environment()
    return env, Cpu(env, spec)


def _drain(env):
    """Run ``env`` to idle one step at a time; returns the step count."""
    steps = 0
    while env.peek() != float("inf"):
        env.step()
        steps += 1
    return steps


def test_compute_work_takes_scaled_time():
    env, cpu = make_cpu()

    def proc(env):
        yield from cpu.run(compute_s=0.1)

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.1)


def test_xeon_scales_compute_down():
    env = Environment()
    cpu = Cpu(env, XEON_GOLD_5220)

    def proc(env):
        yield from cpu.run(compute_s=0.25)

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.25 / XEON_GOLD_5220.compute_speedup)


def test_io_floor_applies_on_fast_devices():
    env = Environment()
    cpu = Cpu(env, XEON_GOLD_5220)

    def proc(env):
        yield from cpu.run(io_busy_s=1e-6)  # would scale below the floor

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(XEON_GOLD_5220.io_floor_s)


def test_io_wait_delays_without_busy_time():
    env, cpu = make_cpu()

    def proc(env):
        yield from cpu.run(io_wait_s=0.2)

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.2)
    assert cpu.busy_time() == 0.0


def test_busy_time_accounted_per_tag():
    env, cpu = make_cpu()

    def proc(env):
        yield from cpu.run(compute_s=0.1, tag="capture")
        yield from cpu.run(compute_s=0.3, tag="workload")

    env.process(proc(env))
    env.run()
    assert cpu.busy_time("capture") == pytest.approx(0.1)
    assert cpu.busy_time("workload") == pytest.approx(0.3)
    assert cpu.busy_time() == pytest.approx(0.4)
    assert cpu.busy_tags() == pytest.approx({"capture": 0.1, "workload": 0.3})


def test_utilization_overall_and_tagged():
    env, cpu = make_cpu()

    def proc(env):
        yield from cpu.run(compute_s=0.2, tag="capture")
        yield env.timeout(0.8)

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(1.0)
    assert cpu.utilization() == pytest.approx(0.2)
    assert cpu.utilization("capture") == pytest.approx(0.2)
    assert cpu.utilization("other") == 0.0


def test_single_core_serializes_contending_work():
    env, cpu = make_cpu()  # A8M3 is single core
    done = []

    def proc(env, label):
        yield from cpu.run(compute_s=0.5, tag=label)
        done.append((label, env.now))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert done == [("a", pytest.approx(0.5)), ("b", pytest.approx(1.0))]


def test_multi_core_runs_in_parallel():
    env = Environment()
    spec = DeviceSpec(
        name="dual", cpu_freq_hz=1e9, cores=2, compute_speedup=1.0,
        io_speedup=1.0, io_floor_s=0.0, ram_bytes=1 << 30,
    )
    cpu = Cpu(env, spec)
    done = []

    def proc(env, label):
        yield from cpu.run(compute_s=0.5)
        done.append((label, env.now))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert done == [("a", pytest.approx(0.5)), ("b", pytest.approx(0.5))]


def test_run_async_does_not_block_caller():
    env, cpu = make_cpu()
    marks = []

    def proc(env):
        cpu.run_async(compute_s=0.5, tag="bg")
        marks.append(env.now)
        yield env.timeout(0.01)
        marks.append(env.now)

    env.process(proc(env))
    env.run()
    assert marks == [0.0, pytest.approx(0.01)]
    assert cpu.busy_time("bg") == pytest.approx(0.5)


def test_async_work_contends_with_foreground():
    env, cpu = make_cpu()  # 1 core
    times = {}

    def fg(env):
        yield env.timeout(0.1)  # let background start first
        yield from cpu.run(compute_s=0.1, tag="fg")
        times["fg_done"] = env.now

    cpu.run_async(compute_s=0.5, tag="bg")
    env.process(fg(env))
    env.run()
    # foreground had to wait for the background slot to free at 0.5
    assert times["fg_done"] == pytest.approx(0.6)


def test_zero_work_is_free():
    env, cpu = make_cpu()

    def proc(env):
        yield from cpu.run()
        yield env.timeout(0)

    env.process(proc(env))
    env.run()
    assert env.now == 0.0
    assert cpu.busy_time() == 0.0


def test_reset_accounting():
    env, cpu = make_cpu()

    def proc(env):
        yield from cpu.run(compute_s=0.2, tag="capture")
        cpu.reset_accounting()
        yield env.timeout(0.2)

    env.process(proc(env))
    env.run()
    assert cpu.busy_time("capture") == 0.0
    assert cpu.utilization() == 0.0


def test_run_on_idle_core_costs_exactly_its_timeouts():
    env, cpu = make_cpu()

    def proc(env):
        yield from cpu.run(compute_s=0.1, io_wait_s=0.2)

    env.process(proc(env))
    # Initialize, the busy timeout, the wait timeout and the process end:
    # a free core is granted without an event
    assert _drain(env) == 4
    assert env.now == pytest.approx(0.3)


def test_run_async_is_timers_not_processes(monkeypatch):
    spawned = []
    real_init = Process.__init__

    def spy(self, *args, **kwargs):
        spawned.append(kwargs.get("name"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", spy)
    env, cpu = make_cpu()  # 1 core
    assert cpu.run_async(io_busy_s=0.1, tag="bg") is None
    assert cpu.busy_cores.value == 1  # a free core is taken at the call
    cpu.run_async(io_busy_s=0.1, tag="bg")  # queues behind the first
    cpu.run_async(tag="bg")  # no work, no event
    # first charge: its release timer; second: its grant and release timer
    assert _drain(env) == 3
    assert spawned == []
    assert env.now == pytest.approx(0.2)
    assert cpu.busy_time("bg") == pytest.approx(0.2)
    assert cpu.busy_cores.value == 0


def test_interrupted_charge_accounts_only_the_time_it_held_the_core():
    env, cpu = make_cpu(DeviceSpec(
        name="unit", cpu_freq_hz=1e9, cores=1, compute_speedup=1.0,
        io_speedup=1.0, io_floor_s=0.0, ram_bytes=1 << 30,
    ))

    def charge(delay):
        try:
            yield env.timeout(delay)
            yield from cpu.run(compute_s=1.0, tag="capture")
        except Interrupt:
            pass

    def interrupter(victim, at):
        yield env.timeout(at)
        victim.interrupt()

    mid = env.process(charge(0.0))
    at_grant = env.process(charge(2.0))
    env.process(interrupter(mid, 0.25))
    env.process(interrupter(at_grant, 2.0))  # as it takes the free core
    env.run()
    assert cpu.busy_time("capture") == 0.25
    assert cpu.busy_cores.integral() == 0.25
