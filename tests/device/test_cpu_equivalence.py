"""``Cpu.run``/``Cpu.run_async`` against the process-based CPU model they
replaced.

:class:`ReferenceCpu` is that model: every core grant is a yielded
``Request`` event and every asynchronous charge its own process.  The
event-free model must produce the same completion and interrupt times,
the same busy seconds per tag and the same busy-core timeline for any
interleaving of foreground and asynchronous charges and interrupts.

An interrupt in the instant a free core is taken finds the event-free
caller already in its busy timeout, where the reference caller still
waits for its grant event.  The caller holds the core for 0 s, so the
timeline and the busy seconds agree.  The left-over timeout can still
move the instant the event queue drains, which is therefore not compared,
and a tag charged 0 s may appear with 0.0.

All times lie on binary grids, so every sum is exact and the comparison
is by equality.  Calls, grants and releases fall on quarter seconds and
interrupts on eighths, so some land in the very instant a core is taken.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.device import Cpu, DeviceSpec
from repro.simkernel import Environment, Interrupt, Resource, TimeWeighted


class EventedResource(Resource):
    """A :class:`Resource` that grants even a free slot by a scheduled
    event, so its yielder resumes in a later step of the same instant."""

    def _do_request(self, request):
        if len(self.users) < self._capacity:
            self.users.append(request)
            request.usage_since = self.env.now
            request.succeed()
        else:
            self.queue.append(request)


class ReferenceCpu(Cpu):
    """The process-based charges: one ``Request`` event per grant, one
    process per asynchronous charge."""

    def __init__(self, env, spec):
        super().__init__(env, spec)
        self._cores = EventedResource(env, capacity=spec.cores)

    def run(self, compute_s=0.0, io_busy_s=0.0, io_wait_s=0.0, tag="workload"):
        spec, env = self.spec, self.env
        busy = 0.0
        if compute_s:
            busy = spec.scale_compute(compute_s)
        if io_busy_s:
            busy += spec.scale_io(io_busy_s)
        if busy > 0:
            with self._cores.request() as req:
                yield req
                self.busy_cores.add(1)
                start = env.now
                try:
                    yield env.timeout(busy)
                except Interrupt:
                    busy = env.now - start
                    raise
                finally:
                    self.busy_cores.add(-1)
                    self._busy_time_by_tag[tag] += busy
        if io_wait_s:
            wait = spec.scale_io(io_wait_s)
            if wait > 0:
                yield env.timeout(wait)

    def run_async(self, compute_s=0.0, io_busy_s=0.0, tag="background"):
        self.env.process(
            self.run(compute_s, io_busy_s, tag=tag), name=f"cpu-async-{tag}"
        )


def _spec(cores: int) -> DeviceSpec:
    return DeviceSpec(
        name=f"grid-{cores}", cpu_freq_hz=1e9, cores=cores, compute_speedup=1.0,
        io_speedup=1.0, io_floor_s=0.0, ram_bytes=1 << 30,
    )


class LoggedBusyCores(TimeWeighted):
    """``Cpu.busy_cores`` that also records every change."""

    def __init__(self, env):
        super().__init__(env, 0)
        self.changes = []

    def add(self, delta):
        super().add(delta)
        self.changes.append((self.env.now, self.value))


def timeline(changes):
    """Busy cores after each instant in which the count changed; a rise
    and fall within one instant cancel out."""
    at = {}
    for now, value in changes:
        at[now] = value
    steps, last = [], 0.0
    for now, value in sorted(at.items()):
        if value != last:
            steps.append((now, value))
            last = value
    return steps


def simulate(cpu_class, cores, charges):
    """Run ``charges`` on a fresh ``cpu_class``; returns what it observed."""
    env = Environment()
    cpu = cpu_class(env, _spec(cores))
    cpu.busy_cores = LoggedBusyCores(env)
    log = {}

    def foreground(index, start, compute, io_busy, io_wait, tag):
        try:
            yield env.timeout(start)
            yield from cpu.run(compute_s=compute, io_busy_s=io_busy,
                               io_wait_s=io_wait, tag=tag)
        except Interrupt:
            log[index] = ("interrupted", env.now)
            return
        log[index] = ("done", env.now)

    def background(start, compute, io_busy, tag):
        yield env.timeout(start)
        cpu.run_async(compute_s=compute, io_busy_s=io_busy, tag=tag)

    def interrupter(victim, at):
        yield env.timeout(at)
        if victim.is_alive:
            victim.interrupt("killed")

    for index, (kind, start, compute, io_busy, io_wait, tag, kill) in enumerate(charges):
        start, compute, io_busy, io_wait = (
            start / 4, compute / 4, io_busy / 4, io_wait / 4
        )
        if kind == "async":
            env.process(background(start, compute, io_busy, tag))
            continue
        proc = env.process(foreground(index, start, compute, io_busy, io_wait, tag))
        if kill is not None:
            env.process(interrupter(proc, kill / 8))
    env.run()
    return {
        "log": log,
        "busy_tags": {tag: busy for tag, busy in cpu.busy_tags().items() if busy},
        "busy_timeline": timeline(cpu.busy_cores.changes),
        "busy_integral": cpu.busy_cores.integral(),
        "cores_free": cpu._cores.count == 0 and not cpu._cores.queue,
    }


charge = st.tuples(
    st.sampled_from(["fg", "async"]),
    st.integers(0, 12),  # start, quarter seconds
    st.integers(0, 4),  # compute, quarter seconds
    st.integers(0, 2),  # io busy, quarter seconds
    st.integers(0, 2),  # io wait, quarter seconds (foreground only)
    st.sampled_from(["capture", "workload"]),
    st.none() | st.integers(0, 80),  # interrupt, eighth seconds
)


@given(cores=st.sampled_from([1, 2]), charges=st.lists(charge, max_size=14))
@example(cores=1, charges=[
    ("async", 0, 4, 0, 0, "capture", None),
    ("fg", 0, 2, 0, 1, "workload", 3),  # killed while queued behind it
    ("fg", 0, 1, 1, 0, "workload", None),
    ("async", 1, 2, 1, 0, "capture", None),
])
@example(cores=2, charges=[
    ("fg", 0, 4, 0, 0, "workload", None),
    ("async", 0, 4, 0, 0, "capture", None),
    ("fg", 0, 2, 0, 0, "workload", 5),  # killed while queued
    ("async", 0, 1, 0, 0, "capture", None),
    ("fg", 1, 4, 0, 0, "workload", 11),  # killed while busy
])
@example(cores=1, charges=[("fg", 0, 0, 1, 0, "capture", 0)])
@example(cores=1, charges=[
    ("fg", 1, 2, 0, 0, "capture", 2),  # killed as it takes a free core
    ("fg", 1, 1, 0, 0, "workload", None),
    ("async", 2, 1, 0, 0, "capture", None),
])
@settings(max_examples=200, deadline=None)
def test_event_free_cpu_matches_process_based_reference(cores, charges):
    expected = simulate(ReferenceCpu, cores, charges)
    assert expected["cores_free"]
    assert simulate(Cpu, cores, charges) == expected
