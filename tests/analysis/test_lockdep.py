"""Runtime lock-order detector (the dynamic half of REP001).

The detector must catch a seeded inversion deterministically — without
needing the deadlock's interleaving to actually occur — and must stay
invisible when disabled (plain ``threading`` locks, zero overhead).
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import lockdep
from repro.analysis.lockdep import DepLock, DepRLock, make_lock, make_rlock
from repro.core.counter import ShortestCycleCounter
from repro.errors import LockOrderError, ReproError
from repro.paperdata import figure2_graph
from repro.service import DurabilityConfig, ServeConfig, ServeEngine


@pytest.fixture
def instrumented():
    lockdep.reset()
    lockdep.enable()
    try:
        yield
    finally:
        lockdep.disable()
        lockdep.reset()


class TestFactory:
    def test_disabled_returns_plain_locks(self):
        assert not lockdep.is_enabled()
        assert isinstance(make_lock("x", rank=1), type(threading.Lock()))
        assert isinstance(make_rlock("x"), type(threading.RLock()))

    def test_enabled_returns_instrumented_locks(self, instrumented):
        lock = make_lock("ServeEngine._lock", rank=30)
        assert isinstance(lock, DepLock)
        assert lock.name == "ServeEngine._lock"
        assert lock.rank == 30
        assert isinstance(make_rlock("r"), DepRLock)

    def test_env_var_enables_at_import(self):
        src = Path(__file__).parents[2] / "src"
        code = (
            "from repro.analysis import lockdep\n"
            "assert lockdep.is_enabled()\n"
            "assert isinstance(lockdep.make_lock('x'), lockdep.DepLock)\n"
        )
        env = dict(os.environ, REPRO_LOCKDEP="1",
                   PYTHONPATH=str(src) + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestDetector:
    def test_seeded_rank_inversion_raises_before_blocking(self, instrumented):
        outer = DepLock("ServeEngine._lock", rank=30)
        inner = DepLock("ServeEngine._dur_lock", rank=20)
        with outer:
            with pytest.raises(LockOrderError, match="inversion"):
                inner.acquire()
        assert not inner.locked(), "failed acquisition must not hold"

    def test_canonical_order_is_silent(self, instrumented):
        dur = DepLock("_dur_lock", rank=20)
        state = DepLock("_lock", rank=30)
        with dur, state:
            pass
        assert lockdep.edges()["_dur_lock"] == {"_lock"}

    def test_unranked_cycle_detected_across_code_paths(self, instrumented):
        a = DepLock("a")
        b = DepLock("b")
        with a:
            with b:
                pass
        # The opposite nesting never deadlocks in this single-threaded
        # run — the recorded graph still convicts it.
        with b:
            with pytest.raises(LockOrderError, match="cyclic"):
                a.acquire()

    def test_self_reacquisition_raises(self, instrumented):
        lock = DepLock("solo")
        with lock:
            with pytest.raises(LockOrderError, match="self-deadlock"):
                lock.acquire()

    def test_lock_order_error_is_a_repro_error(self, instrumented):
        lock = DepLock("solo")
        with lock, pytest.raises(ReproError):
            lock.acquire()

    def test_rlock_reacquisition_is_fine(self, instrumented):
        rlock = DepRLock("re", rank=30)
        with rlock:
            with rlock:
                assert rlock.locked()
        assert not rlock.locked()

    def test_nonblocking_probe_fails_soft_while_held(self, instrumented):
        # threading.Condition probes ownership with acquire(False);
        # that path must report "busy", not raise.
        lock = DepLock("probe")
        with lock:
            assert lock.acquire(blocking=False) is False

    def test_condition_compatibility(self, instrumented):
        cond = threading.Condition(DepLock("cond._lock", rank=30))
        hits = []

        def waiter():
            with cond:
                hits.append(bool(cond.wait_for(lambda: hits, timeout=5)))

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        with cond:
            hits.append("go")
            cond.notify_all()
        t.join(timeout=5)
        assert not t.is_alive()
        assert hits == ["go", True]

    def test_reset_forgets_recorded_edges(self, instrumented):
        with DepLock("p"):
            with DepLock("q"):
                pass
        assert lockdep.edges()
        lockdep.reset()
        assert lockdep.edges() == {}


class TestServingStackUnderLockdep:
    def test_engine_runs_clean_under_instrumentation(
        self, instrumented, tmp_path
    ):
        counter = ShortestCycleCounter.build(figure2_graph())
        doomed = list(counter.graph.edges())[::5][:4]
        config = ServeConfig(
            batch_size=2, durability=DurabilityConfig(data_dir=tmp_path)
        )
        engine = ServeEngine(counter, config)
        with engine:
            assert isinstance(engine._lock, DepLock)
            assert isinstance(engine._dur_lock, DepLock)
            engine.submit_many(("delete", a, b) for a, b in doomed)
            final = engine.flush(timeout=60)
            assert final.ops_applied == len(doomed)
            engine.count_many(range(final.n))
        # Both named locks were really taken under instrumentation: the
        # writer logged each batch under _dur_lock and counted it under
        # _lock.
        assert engine.durability_stats().wal_records >= 1
        # The engine's discipline is "never hold two of the named locks
        # at once": a clean run must leave the acquisition graph free of
        # any edge between them (the instrumentation would have raised
        # on an inversion before this point anyway).
        recorded = lockdep.edges()
        assert not [
            (held, inner)
            for held, succs in recorded.items() if "ServeEngine" in held
            for inner in succs if "ServeEngine" in inner
        ]
