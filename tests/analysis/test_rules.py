"""Per-rule fixtures: one clean and one dirty program per check.

Each rule is exercised through :func:`repro.analysis.lint_source` with a
path chosen to land on the right side of the src/tests scoping, so these
tests pin both the detection logic and the rule's blast radius.
"""

import textwrap

from repro.analysis import get_rules, lint_source

SRC_PATH = "src/repro/somemod.py"
TEST_PATH = "tests/somemod/test_x.py"


def run(source, rule, path=SRC_PATH):
    return lint_source(textwrap.dedent(source), path, get_rules([rule]))


def rules_hit(violations):
    return sorted({v.rule for v in violations})


# -- wall-clock ------------------------------------------------------------
def test_wall_clock_flags_time_time():
    out = run("import time\nstart = time.time()\n", "wall-clock")
    assert rules_hit(out) == ["wall-clock"]
    assert "host clock" in out[0].message


def test_wall_clock_flags_aliased_from_import():
    out = run("from time import sleep as zzz\nzzz(1)\n", "wall-clock")
    assert rules_hit(out) == ["wall-clock"]
    assert "time.sleep" in out[0].message


def test_wall_clock_flags_datetime_now():
    out = run("import datetime\nts = datetime.datetime.now()\n", "wall-clock")
    assert rules_hit(out) == ["wall-clock"]


def test_wall_clock_clean_simulated_time():
    out = run(
        """
        def proc(env):
            start = env.now
            yield env.timeout(1.0)
            return env.now - start
        """,
        "wall-clock",
    )
    assert out == []


def test_wall_clock_allowlists_the_timing_shim():
    source = "import time\n\n\ndef wall_clock():\n    return time.perf_counter()\n"
    assert run(source, "wall-clock", path="src/repro/harness/timing.py") == []
    # the same source anywhere else is a violation
    assert rules_hit(run(source, "wall-clock")) == ["wall-clock"]


def test_wall_clock_is_src_only():
    assert run("import time\ntime.time()\n", "wall-clock", path=TEST_PATH) == []


# -- unseeded-random -------------------------------------------------------
def test_unseeded_random_flags_stdlib_global():
    out = run("import random\nx = random.random()\n", "unseeded-random")
    assert rules_hit(out) == ["unseeded-random"]
    assert "random.Random(seed)" in out[0].message


def test_unseeded_random_flags_numpy_global():
    out = run("import numpy as np\nx = np.random.rand(3)\n", "unseeded-random")
    assert rules_hit(out) == ["unseeded-random"]
    assert "default_rng" in out[0].message


def test_unseeded_random_clean_seeded_instances():
    out = run(
        """
        import random
        import numpy as np

        rng = random.Random(42)
        x = rng.random()
        gen = np.random.default_rng(7)
        y = gen.normal()
        """,
        "unseeded-random",
    )
    assert out == []


def test_unseeded_random_applies_to_tests_too():
    out = run("import random\nrandom.shuffle([1])\n", "unseeded-random",
              path=TEST_PATH)
    assert rules_hit(out) == ["unseeded-random"]


# -- dropped-event ---------------------------------------------------------
def test_dropped_event_flags_bare_timeout():
    out = run(
        """
        def proc(env):
            env.timeout(1.0)
            yield env.timeout(2.0)
        """,
        "dropped-event",
    )
    assert len(out) == 1 and out[0].rule == "dropped-event"
    assert out[0].line == 3


def test_dropped_event_flags_bare_event():
    out = run("def proc(env):\n    env.event()\n", "dropped-event")
    assert rules_hit(out) == ["dropped-event"]


def test_dropped_event_flags_triggered_fresh_event():
    out = run("def proc(env):\n    env.event().succeed()\n", "dropped-event")
    assert rules_hit(out) == ["dropped-event"]
    assert "bind the event" in out[0].message


def test_dropped_event_allows_triggering_a_stored_event():
    out = run(
        """
        def proc(env, gate):
            gate.succeed()
            yield env.timeout(0)
        """,
        "dropped-event",
    )
    assert out == []


def test_dropped_event_requires_process_name_in_src():
    source = """
        def boot(self):
            self.env.process(self._daemon())
    """
    out = run(source, "dropped-event")
    assert rules_hit(out) == ["dropped-event"]
    assert "name=" in out[0].message
    # tests spawn short-lived processes; no naming requirement there
    assert run(source, "dropped-event", path=TEST_PATH) == []


def test_dropped_event_flags_discarded_store_put_in_src():
    source = """
        def deliver(self, item):
            self._inbox.put(item)
    """
    out = run(source, "dropped-event")
    assert rules_hit(out) == ["dropped-event"]
    assert "put_nowait" in out[0].message
    # tests may discard puts
    assert run(source, "dropped-event", path=TEST_PATH) == []


def test_dropped_event_allows_put_nowait_and_yielded_put():
    out = run(
        """
        def deliver(self, item):
            self._inbox.put_nowait(item)

        def produce(self, item):
            yield self._bounded.put(item)
            done = self._bounded.put(item)
            return done
        """,
        "dropped-event",
    )
    assert out == []


def test_dropped_event_clean_named_process():
    out = run(
        """
        def boot(self):
            self.env.process(self._daemon(), name="daemon")
    """,
        "dropped-event",
    )
    assert out == []


def test_dropped_event_clean_bound_handles():
    out = run(
        """
        def proc(env):
            t = env.timeout(1.0)
            yield t
            done = env.event()
            return done
        """,
        "dropped-event",
    )
    assert out == []


# -- bare-swallow ----------------------------------------------------------
def test_bare_swallow_flags_except_exception_pass():
    out = run(
        """
        try:
            work()
        except Exception:
            pass
        """,
        "bare-swallow",
    )
    assert rules_hit(out) == ["bare-swallow"]


def test_bare_swallow_flags_bare_except_and_tuple():
    out = run(
        """
        try:
            work()
        except:
            pass

        try:
            work()
        except (ValueError, Exception):
            pass
        """,
        "bare-swallow",
    )
    assert len(out) == 2


def test_bare_swallow_clean_narrow_or_handled():
    out = run(
        """
        try:
            work()
        except ValueError:
            pass

        try:
            work()
        except Exception:
            errors.append(1)
        """,
        "bare-swallow",
    )
    assert out == []


def test_bare_swallow_suppressible_with_reason():
    out = run(
        """
        try:
            work()
        except Exception:  # lint: disable=bare-swallow(listener must not kill the pipeline)
            pass
        """,
        "bare-swallow",
    )
    assert out == []


# -- all-export-sync -------------------------------------------------------
def test_all_export_flags_unbound_name():
    out = run('__all__ = ["ghost"]\n', "all-export-sync")
    assert rules_hit(out) == ["all-export-sync"]
    assert "never binds" in out[0].message


def test_all_export_flags_duplicate():
    out = run('__all__ = ["f", "f"]\n\n\ndef f():\n    pass\n', "all-export-sync")
    assert any("twice" in v.message for v in out)


def test_all_export_flags_missing_public_def():
    out = run(
        '__all__ = ["f"]\n\n\ndef f():\n    pass\n\n\ndef g():\n    pass\n',
        "all-export-sync",
    )
    assert len(out) == 1
    assert "'g'" in out[0].message


def test_all_export_clean_in_sync():
    out = run(
        """
        __all__ = ["f", "CONST", "Klass"]

        CONST = 1


        def f():
            pass


        def _private():
            pass


        class Klass:
            pass
        """,
        "all-export-sync",
    )
    assert out == []


def test_all_export_sees_through_version_guards():
    out = run(
        """
        __all__ = ["fast_path"]

        try:
            from _speedups import fast_path
        except ImportError:
            def fast_path():
                pass
        """,
        "all-export-sync",
    )
    assert out == []


def test_all_export_skips_dynamic_and_absent_all():
    assert run("def f():\n    pass\n", "all-export-sync") == []
    out = run(
        '__all__ = [n for n in ("a", "b")]\n\n\ndef f():\n    pass\n',
        "all-export-sync",
    )
    assert out == []


def test_all_export_is_src_only():
    assert run('__all__ = ["ghost"]\n', "all-export-sync", path=TEST_PATH) == []


# -- environ-read ----------------------------------------------------------
def test_environ_read_flags_environ_and_getenv():
    out = run(
        """
        import os
        from os import environ, getenv as env_var

        a = os.environ.get("REPRO_X")
        b = os.getenv("REPRO_Y", "1")
        c = environ["REPRO_Z"]
        d = env_var("REPRO_W")
        e = "REPRO_V" in os.environ
        """,
        "environ-read",
    )
    assert rules_hit(out) == ["environ-read"]
    assert [v.line for v in out] == [5, 6, 7, 8, 9]
    assert "os.getenv" in out[1].message


def test_environ_read_clean_value_passed_as_argument():
    out = run(
        """
        import os

        def run(shards, env):
            path = os.path.join("a", "b")
            return env.now, shards, path
        """,
        "environ-read",
    )
    assert out == []


def test_environ_read_suppressible_with_reason():
    out = run(
        'import os\n'
        'n = os.environ.get("REPRO_REPETITIONS")'
        '  # lint: disable=environ-read(how many runs, not what a run is)\n',
        "environ-read",
    )
    assert out == []


def test_environ_read_is_src_only():
    source = "import os\nx = os.environ.get('HOME')\n"
    assert run(source, "environ-read", path=TEST_PATH) == []
    assert rules_hit(run(source, "environ-read")) == ["environ-read"]


# -- bare-counter ----------------------------------------------------------
def test_bare_counter_flags_every_import_form():
    out = run(
        """
        from ..simkernel import Counter
        from ..simkernel.monitor import Counter as MonitorCounter
        import repro.simkernel as sk
        from repro.simkernel import Counter as AbsoluteCounter

        a = Counter("records")
        b = MonitorCounter("bytes")
        c = sk.Counter("drops")
        d = AbsoluteCounter("posts")
        """,
        "bare-counter",
        path="src/repro/net/somemod.py",
    )
    assert rules_hit(out) == ["bare-counter"]
    assert [v.line for v in out] == [7, 8, 9, 10]
    assert "env.metrics.counter" in out[0].message


def test_bare_counter_clean_registry_and_collections_counter():
    out = run(
        """
        import collections
        from collections import Counter

        def build(env):
            tally = Counter("abc")
            other = collections.Counter()
            return env.metrics.counter("link", "tx_bytes", src="a"), tally, other
        """,
        "bare-counter",
    )
    assert out == []


def test_bare_counter_allows_the_registry_itself():
    source = "from .. import simkernel\nc = simkernel.Counter('x')\n"
    home = "src/repro/simkernel/monitor.py"
    assert run(source, "bare-counter", path=home) == []
    assert rules_hit(run(source, "bare-counter",
                         path="src/repro/simkernel/other.py")) == ["bare-counter"]


def test_bare_counter_suppressible_with_reason_and_src_only():
    source = (
        "from repro.simkernel import Counter\n"
        "n = Counter('records')  # lint: disable=bare-counter(no environment here)\n"
    )
    assert run(source, "bare-counter") == []
    dirty = "from repro.simkernel import Counter\nn = Counter('records')\n"
    assert run(dirty, "bare-counter", path=TEST_PATH) == []
    assert rules_hit(run(dirty, "bare-counter")) == ["bare-counter"]

