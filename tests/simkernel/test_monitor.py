"""Tests for measurement helpers."""

from repro.simkernel import Counter, Environment, RateMeter, TimeWeighted


def test_time_weighted_mean_utilization():
    env = Environment()
    busy = TimeWeighted(env, 0)

    def proc(env):
        yield env.timeout(2)   # idle 0..2
        busy.value = 1
        yield env.timeout(6)   # busy 2..8
        busy.value = 0
        yield env.timeout(2)   # idle 8..10

    env.process(proc(env))
    env.run()
    assert busy.mean() == 0.6
    assert busy.integral() == 6.0


def test_time_weighted_add():
    env = Environment()
    queue_len = TimeWeighted(env, 0)

    def proc(env):
        queue_len.add(2)
        yield env.timeout(5)
        queue_len.add(-1)
        yield env.timeout(5)

    env.process(proc(env))
    env.run()
    # 2 for 5s then 1 for 5s = integral 15 over 10s
    assert queue_len.mean() == 1.5


def test_time_weighted_reset():
    env = Environment()
    v = TimeWeighted(env, 1)

    def proc(env):
        yield env.timeout(4)
        v.reset()
        yield env.timeout(4)

    env.process(proc(env))
    env.run()
    assert v.mean() == 1.0
    assert v.integral() == 4.0  # only since reset


def test_time_weighted_no_elapsed_time():
    env = Environment()
    v = TimeWeighted(env, 7)
    assert v.mean() == 7


def test_counter_records():
    c = Counter("bytes")
    c.record(100)
    c.record(50)
    assert c.count == 2
    assert c.total == 150
    c.reset()
    assert c.count == 0 and c.total == 0


def test_rate_meter_average_rate():
    env = Environment()
    meter = RateMeter(env)

    def proc(env):
        meter.start()
        yield env.timeout(1)
        meter.record(1000)
        yield env.timeout(1)
        meter.record(1000)
        meter.stop()

    env.process(proc(env))
    env.run()
    assert meter.total == 2000
    assert meter.rate() == 1000.0


def test_rate_meter_auto_start_on_record():
    env = Environment()
    meter = RateMeter(env)

    def proc(env):
        yield env.timeout(5)
        meter.record(10)
        yield env.timeout(1)

    env.process(proc(env))
    env.run()
    assert meter.rate() == 10.0


def test_rate_meter_zero_time():
    env = Environment()
    meter = RateMeter(env)
    assert meter.rate() == 0.0
