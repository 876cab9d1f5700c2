"""Tests for statistics, collectors and table rendering."""

import pytest

from repro.metrics import (
    MeanCI,
    fmt_bytes,
    fmt_ci_pct,
    fmt_pct,
    mean_ci,
    relative_overhead,
    render_table,
    snapshot_device,
    speedup,
)


def test_mean_ci_known_values():
    ci = mean_ci([10.0, 12.0, 11.0, 13.0, 9.0])
    assert ci.mean == pytest.approx(11.0)
    assert ci.n == 5
    # sem 0.7071067811865476 x t(0.975, 4) 2.7764451051977934
    assert ci.halfwidth == pytest.approx(1.9632431614775572, rel=1e-12)
    assert ci.low < 11.0 < ci.high


def test_mean_ci_single_value_has_zero_width():
    ci = mean_ci([5.0])
    assert ci.mean == 5.0
    assert ci.halfwidth == 0.0


def test_mean_ci_constant_values():
    ci = mean_ci([2.0] * 10)
    assert ci.halfwidth == 0.0


def test_mean_ci_empty_rejected():
    with pytest.raises(ValueError):
        mean_ci([])


def test_mean_ci_width_shrinks_with_samples():
    import numpy as np

    rng = np.random.default_rng(0)
    small = mean_ci(rng.normal(size=5))
    large = mean_ci(rng.normal(size=100))
    assert large.halfwidth < small.halfwidth


def test_mean_ci_formatting():
    ci = MeanCI(mean=0.0154, halfwidth=0.0001, n=10)
    assert ci.as_percent() == "1.54% ±0.01"
    assert "±" in str(ci)


def test_relative_overhead():
    assert relative_overhead(57.0, 50.0) == pytest.approx(0.14)
    assert relative_overhead(50.0, 50.0) == 0.0
    with pytest.raises(ValueError):
        relative_overhead(1.0, 0.0)


def test_speedup():
    assert speedup(142.0, 3.85) == pytest.approx(36.9, rel=0.01)
    with pytest.raises(ValueError):
        speedup(1.0, 0.0)


def test_fmt_helpers():
    assert fmt_pct(0.0154) == "1.54%"
    assert fmt_ci_pct(0.569, 0.0008) == "56.90% ±0.08"
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(2048) == "2.0KB"
    assert fmt_bytes(3 * 1024 * 1024) == "3.0MB"


def test_render_table_alignment():
    out = render_table(
        "Table X", ["col", "value"], [["a", 1], ["longer", 22]], note="note line"
    )
    assert "=== Table X ===" in out
    assert "| a      | 1     |" in out
    assert out.strip().endswith("note line")


def test_render_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        render_table("t", ["a", "b"], [["only-one"]])


def test_snapshot_device_reads_accounting():
    from repro.device import A8M3, Device
    from repro.simkernel import Environment

    env = Environment()
    dev = Device(env, A8M3)

    def proc(env):
        yield from dev.run(compute_s=0.2, tag="capture")
        dev.radio.on_transmit(1024)
        dev.radio.on_receive(512)
        yield env.timeout(0.8)

    env.process(proc(env))
    env.run()
    m = snapshot_device(dev, elapsed_s=1.0)
    assert m.capture_cpu_utilization == pytest.approx(0.2)
    assert m.tx_bytes == 1024
    assert m.rx_bytes == 512
    assert m.network_rate_bps == pytest.approx(1536 * 8)
    assert m.network_kb_per_s == pytest.approx(1.5)
    assert m.average_power_w is not None


def test_snapshot_zero_elapsed():
    from repro.device import A8M3, Device
    from repro.simkernel import Environment

    env = Environment()
    dev = Device(env, A8M3)
    m = snapshot_device(dev, elapsed_s=0.0)
    assert m.network_rate_bps == 0.0
