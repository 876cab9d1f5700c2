"""Tests for the memory ledger, energy meter, radio and Device facade."""

import pytest

from repro.calibration import EnergyCoefficients
from repro.device import A8M3, Cpu, Device, EnergyMeter, Memory, MemoryExceeded
from repro.simkernel import Environment


# -- Memory -----------------------------------------------------------------


def test_memory_allocate_free_roundtrip():
    mem = Memory(A8M3)
    mem.allocate(1000, tag="capture")
    mem.allocate(500, tag="workload")
    assert mem.used() == 1500
    assert mem.used("capture") == 1000
    mem.free(400, tag="capture")
    assert mem.used("capture") == 600


def test_memory_peak_tracking():
    mem = Memory(A8M3)
    mem.allocate(1000, tag="buf")
    mem.free(900, tag="buf")
    mem.allocate(200, tag="buf")
    assert mem.peak("buf") == 1000
    assert mem.used("buf") == 300
    assert mem.peak() == 1000


def test_memory_fraction_of_ram():
    mem = Memory(A8M3)
    mem.allocate(A8M3.ram_bytes // 4, tag="x")
    assert mem.fraction_of_ram("x") == pytest.approx(0.25)


def test_memory_over_free_rejected():
    mem = Memory(A8M3)
    mem.allocate(10, tag="t")
    with pytest.raises(ValueError):
        mem.free(20, tag="t")


def test_memory_negative_amounts_rejected():
    mem = Memory(A8M3)
    with pytest.raises(ValueError):
        mem.allocate(-1)
    with pytest.raises(ValueError):
        mem.free(-1)


def test_memory_strict_mode_raises_on_overflow():
    mem = Memory(A8M3, strict=True)
    with pytest.raises(MemoryExceeded):
        mem.allocate(A8M3.ram_bytes + 1)


def test_memory_tags_snapshot_hides_empty():
    mem = Memory(A8M3)
    mem.allocate(10, "a")
    mem.allocate(5, "b")
    mem.free(5, "b")
    assert mem.tags() == {"a": 10}


# -- EnergyMeter ---------------------------------------------------------------


def coeffs(**overrides):
    base = dict(
        base_w=1.0, cpu_busy_w=0.5, tx_j_per_kb=0.001,
        rx_listen_w=0.2, wake_window_w=0.1, wake_window_s=0.05,
    )
    base.update(overrides)
    return EnergyCoefficients(**base)


def test_idle_device_consumes_base_power():
    env = Environment()
    cpu = Cpu(env, A8M3)
    meter = EnergyMeter(env, coeffs(), cpu)

    def proc(env):
        yield env.timeout(10)

    env.process(proc(env))
    env.run()
    assert meter.energy_joules() == pytest.approx(10.0)
    assert meter.average_power_w() == pytest.approx(1.0)


def test_cpu_busy_power_added():
    env = Environment()
    cpu = Cpu(env, A8M3)
    meter = EnergyMeter(env, coeffs(), cpu)

    def proc(env):
        yield from cpu.run(compute_s=4.0)
        yield env.timeout(6.0)

    env.process(proc(env))
    env.run()
    # 10s base + 4s busy * 0.5W
    assert meter.energy_joules() == pytest.approx(10.0 + 2.0)


def test_transmit_energy_and_wake_window():
    env = Environment()
    cpu = Cpu(env, A8M3)
    meter = EnergyMeter(env, coeffs(), cpu)

    def proc(env):
        meter.on_transmit(2048)  # 2 KB -> 0.002 J + wake window 0.05s*0.1W
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    expected = 1.0 + 0.002 + 0.05 * 0.1
    assert meter.energy_joules() == pytest.approx(expected)
    assert meter.tx_bytes == 2048


def test_overlapping_wake_windows_merge():
    env = Environment()
    cpu = Cpu(env, A8M3)
    meter = EnergyMeter(env, coeffs(wake_window_s=0.1), cpu)

    def proc(env):
        meter.touch_wake_window()      # awake 0..0.1
        yield env.timeout(0.05)
        meter.touch_wake_window()      # extends to 0.15, merged
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    awake = meter._awake_time_so_far()
    assert awake == pytest.approx(0.15)


def test_open_wake_window_clipped_at_now():
    env = Environment()
    cpu = Cpu(env, A8M3)
    meter = EnergyMeter(env, coeffs(wake_window_s=10.0), cpu)

    def proc(env):
        meter.touch_wake_window()
        yield env.timeout(1.0)  # window still open at end

    env.process(proc(env))
    env.run()
    assert meter._awake_time_so_far() == pytest.approx(1.0)


def test_rx_listen_power():
    env = Environment()
    cpu = Cpu(env, A8M3)
    meter = EnergyMeter(env, coeffs(), cpu)

    def proc(env):
        meter.rx_listen_start()
        yield env.timeout(2.0)
        meter.rx_listen_stop()
        yield env.timeout(3.0)

    env.process(proc(env))
    env.run()
    assert meter.energy_joules() == pytest.approx(5.0 + 0.2 * 2.0)


def test_negative_tx_bytes_rejected():
    env = Environment()
    meter = EnergyMeter(env, coeffs(), Cpu(env, A8M3))
    with pytest.raises(ValueError):
        meter.on_transmit(-1)


# -- Device facade -------------------------------------------------------------


def test_device_composes_models():
    env = Environment()
    dev = Device(env, A8M3, name="edge-1")
    assert dev.cpu is not None
    assert dev.energy is not None  # A8M3 has energy coefficients
    assert dev.name == "edge-1"


def test_cloud_device_has_no_energy_meter():
    from repro.device import XEON_GOLD_5220

    env = Environment()
    dev = Device(env, XEON_GOLD_5220)
    assert dev.energy is None


def test_device_radio_feeds_energy():
    env = Environment()
    dev = Device(env, A8M3)

    def proc(env):
        dev.radio.on_transmit(1024)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert dev.radio.tx.total == 1024
    assert dev.energy.tx_bytes == 1024


def test_blocking_network_wait_charges_rx_listen():
    env = Environment()
    dev = Device(env, A8M3)

    def request():
        yield env.timeout(2.0)

    def proc(env):
        yield from dev.blocking_network_wait(request())
        yield env.timeout(2.0)

    env.process(proc(env))
    env.run()
    # 4s base + 2s of rx listen
    expected = dev.spec.energy.base_w * 4.0 + dev.spec.energy.rx_listen_w * 2.0
    assert dev.energy.energy_joules() == pytest.approx(expected)


def test_device_reset_accounting():
    env = Environment()
    dev = Device(env, A8M3)

    def proc(env):
        yield from dev.run(compute_s=0.1, tag="capture")
        dev.radio.on_transmit(100)
        dev.reset_accounting()
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert dev.cpu.busy_time() == 0.0
    assert dev.radio.tx.total == 0
    assert dev.energy.average_power_w() == pytest.approx(dev.spec.energy.base_w)


def test_spec_lookup():
    from repro.device import spec_by_name

    assert spec_by_name("iotlab-a8-m3") is A8M3
    with pytest.raises(KeyError):
        spec_by_name("nonexistent")
