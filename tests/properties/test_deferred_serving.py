"""Differential properties: deferred deletion repair vs eager serving.

``ServeEngine(defer_deletions=True)`` promises that handing deletion
repairs to a background thread changes *when* the work happens, never
what readers can observe: at every flush point the overlay's queries,
the published epoch number, and the applied-op accounting are identical
to an eager engine fed the same batches — and the WAL it leaves behind
recovers to the same state even when the crash happens mid-deferral,
with tombstoned hubs still pending repair.
"""

import shutil
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counter import ShortestCycleCounter
from repro.service import ServeEngine
from tests.conftest import digraphs, random_digraph


@st.composite
def graphs_with_op_batches(draw, max_n: int = 10, max_batches: int = 5,
                           max_batch: int = 6):
    """A digraph plus a feasible sequence of mixed op batches."""
    g = draw(digraphs(max_n=max_n, max_edge_factor=3))
    sim = g.copy()
    batches = []
    for _ in range(draw(st.integers(1, max_batches))):
        batch = []
        for _ in range(draw(st.integers(1, max_batch))):
            present = list(sim.edges())
            absent = [
                (a, b)
                for a in range(g.n)
                for b in range(g.n)
                if a != b and not sim.has_edge(a, b)
            ]
            if present and (not absent or draw(st.booleans())):
                a, b = draw(st.sampled_from(present))
                sim.remove_edge(a, b)
                batch.append(("delete", a, b))
            elif absent:
                a, b = draw(st.sampled_from(absent))
                sim.add_edge(a, b)
                batch.append(("insert", a, b))
        if batch:
            batches.append(batch)
    return g, batches


def _observe(engine):
    ov = engine.overlay()
    n = ov.snapshot.n
    return (
        ov.epoch,
        ov.snapshot.ops_applied,
        [ov.count(v) for v in range(n)],
        [ov.spcnt(0, v) for v in range(n)],
    )


def _drive(g, batches, defer, **kw):
    """Feed each batch through a flush barrier and record what a reader
    sees at every intermediate point."""
    engine = ServeEngine(
        ShortestCycleCounter.build(g),
        batch_size=64,
        defer_deletions=defer,
        **kw,
    )
    seen = []
    with engine:
        for batch in batches:
            engine.submit_many(batch)
            engine.flush(timeout=120)
            seen.append(_observe(engine))
        stats = engine.stats()
    return seen, stats


class TestDeferredMatchesEager:
    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_overlay_queries_identical_at_every_flush_point(self, data):
        g, batches = data.draw(graphs_with_op_batches())
        eager, _ = _drive(g, batches, defer=False)
        deferred, dstats = _drive(g, batches, defer=True)
        assert deferred == eager
        # Deletion batches really did take the background path.
        n_delete_batches = sum(
            1 for batch in batches
            if any(op == "delete" for op, _, _ in batch)
        )
        assert dstats.deferrals >= n_delete_batches

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_identical_under_repair_threshold(self, data):
        """Same property with the rebuild fallback suppressed (pure
        fingerprint repairs)."""
        g, batches = data.draw(graphs_with_op_batches(max_batches=3))
        eager, _ = _drive(g, batches, defer=False, rebuild_threshold=2.0)
        deferred, _ = _drive(g, batches, defer=True, rebuild_threshold=2.0)
        assert deferred == eager


def test_crash_recovery_with_tombstones_pending(tmp_path):
    """Crash while a deferred repair holds tombstones and later batches
    sit in the buffer: everything was logged before it was deferred, so
    recovery replays the WAL to exactly the eager final state."""
    g = random_digraph(24, 96, seed=13)
    edges = sorted(g.edges())
    batches = [
        [("delete", *e) for e in edges[:4]],
        [("delete", *e) for e in edges[4:7]] + [("insert", 0, edges[0][1])]
        if not g.has_edge(0, edges[0][1]) else [("delete", *e) for e in edges[4:7]],
        [("delete", *e) for e in edges[8:10]],
    ]

    gate = threading.Event()
    entered = threading.Event()

    def hold():
        entered.set()
        gate.wait(30)

    live = tmp_path / "live"
    crashed = tmp_path / "crashed"
    engine = ServeEngine(
        ShortestCycleCounter.build(g),
        batch_size=16,
        defer_deletions=True,
        rebuild_threshold=2.0,
        on_defer=hold,
        data_dir=str(live),
    )
    logged = []
    with engine:
        clean_epoch = engine.snapshot().epoch
        engine.submit_many(batches[0])
        logged.extend(batches[0])
        assert entered.wait(30)
        # Repair thread is tombstoned and held; later batches are
        # logged by the writer and buffered behind it.
        for batch in batches[1:]:
            engine.submit_many(batch)
            logged.extend(batch)
        later_ops = len(logged) - len(batches[0])

        def buffered():
            return sum(len(o) for o, _ in engine._pending)

        pause = threading.Event()
        for _ in range(2000):
            if buffered() == later_ops:
                break
            pause.wait(0.01)
        # The writer kept draining while the repair was held: every op
        # behind the seed batch is logged and buffered, none applied.
        assert buffered() == later_ops
        # Nothing published yet: readers still on the clean epoch, with
        # the repair window visible through the overlay.
        ov = engine.overlay()
        assert ov.epoch == clean_epoch
        assert ov.stale
        assert ov.stale_in_hubs or ov.stale_out_hubs
        # "Crash": copy the durability directory as the disk stood, with
        # every batch logged but none applied, then let the live engine
        # finish normally.
        shutil.copytree(live, crashed)
        gate.set()

    # Ground truth: the live engine's own clean shutdown state...
    survivor = ServeEngine(data_dir=str(live))
    survivor.start()
    want = [survivor.snapshot().count(v) for v in range(g.n)]
    want_applied = survivor.snapshot().ops_applied
    survivor.stop()

    # ...which recovery from the crash image must reproduce by WAL
    # replay (eager, deterministic; tombstones were never persisted).
    recovered = ServeEngine(data_dir=str(crashed))
    assert recovered.recovery is not None
    assert recovered.recovery.records_replayed >= 1
    recovered.start()
    snap = recovered.snapshot()
    assert snap.ops_applied == want_applied == len(logged)
    assert [snap.count(v) for v in range(g.n)] == want
    recovered.stop()
