"""Device-spec scaling rules and radio accounting details."""

import pytest

from repro.device import A8M3, XEON_GOLD_5220, Device, DeviceSpec
from repro.metrics import snapshot_device
from repro.simkernel import Environment


def test_a8m3_is_the_reference_device():
    assert A8M3.compute_speedup == 1.0
    assert A8M3.io_speedup == 1.0
    assert A8M3.io_floor_s == 0.0
    assert A8M3.scale_compute(0.05) == 0.05
    assert A8M3.scale_io(0.05) == 0.05


def test_xeon_scaling_rules():
    assert XEON_GOLD_5220.scale_compute(0.3) == pytest.approx(0.3 / 30.0)
    # io has a floor: tiny io work cannot vanish on fast hardware
    assert XEON_GOLD_5220.scale_io(1e-6) == XEON_GOLD_5220.io_floor_s
    assert XEON_GOLD_5220.scale_io(0.3) == pytest.approx(0.01)


def test_zero_work_scales_to_zero():
    assert XEON_GOLD_5220.scale_compute(0.0) == 0.0
    assert XEON_GOLD_5220.scale_io(0.0) == 0.0
    assert XEON_GOLD_5220.scale_io(-1.0) == 0.0


def test_spec_hardware_facts():
    assert A8M3.cpu_freq_hz == 600e6
    assert A8M3.cores == 1
    assert A8M3.ram_bytes == 256 * 1024 * 1024
    assert A8M3.energy is not None
    assert XEON_GOLD_5220.cores == 18
    assert XEON_GOLD_5220.energy is None


def test_radio_rates_and_reset():
    env = Environment()
    dev = Device(env, A8M3)

    def proc(env):
        dev.radio.on_transmit(1000)
        yield env.timeout(1.0)
        dev.radio.on_receive(500)
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert dev.radio.total_bytes == 1500
    # 1500 B both ways over 2 s
    assert snapshot_device(dev, env.now).network_rate_bps == pytest.approx(6000.0)
    dev.radio.reset()
    assert dev.radio.total_bytes == 0
    assert snapshot_device(dev, env.now).network_rate_bps == 0.0


def test_custom_spec_device():
    spec = DeviceSpec(
        name="tiny", cpu_freq_hz=80e6, cores=1, compute_speedup=0.2,
        io_speedup=0.5, io_floor_s=0.0, ram_bytes=1 << 20,
    )
    env = Environment()
    dev = Device(env, spec, name="esp-like")

    def proc(env):
        yield from dev.run(compute_s=0.1)  # 5x slower than reference

    env.process(proc(env))
    env.run()
    assert env.now == pytest.approx(0.5)
    assert dev.energy is None  # no coefficients given
