"""``_dirty_vertices`` from the epoch log against the O(n) scan.

Copy-on-write ownership logs each vertex the first time it is claimed
after a snapshot, and each snapshot keeps the log of the epoch that
ended at it (:meth:`LabelStore.claimed_since`).  For consecutive
snapshots ``_dirty_vertices`` answers from that log; otherwise it
scans.  Seeded mixed streams — single edges, incremental batches,
rebuild-bound batches, ``add_vertex`` and stray intermediate snapshots
— must give exactly the scan's list at every step, so image and
checkpoint bytes cannot change.
"""

import random

import pytest

from repro.core.counter import ShortestCycleCounter
from repro.core.maintenance import STRATEGIES
from repro.persist.manager import _dirty_vertices
from tests.persist.test_checkpoint import build_counter

pytestmark = pytest.mark.persist

SIDES = ("store_in", "store_out")


def _scan(prev, cur):
    """The O(n) rule: identity/value compares on every vertex."""
    return [
        v for v in range(len(cur.packed))
        if prev.packed[v] is not cur.packed[v]
        or prev.canon[v] != cur.canon[v]
        or prev.big[v] is not cur.big[v]
    ]


def _random_ops(counter, rng, k):
    n = counter.graph.n
    ops = []
    for _ in range(k):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            op = "delete" if counter.graph.has_edge(a, b) else "insert"
            ops.append((op, a, b))
    return ops


def _step(counter, rng):
    """Apply one random kind of change; returns whether the next
    snapshot's log can answer against the previous snapshot."""
    kind = rng.choice(
        ["edge", "edge", "batch", "batch", "rebuild", "add_vertex",
         "stray", "noop"]
    )
    if kind == "edge":
        for op, a, b in _random_ops(counter, rng, 1):
            if op == "insert":
                counter.insert_edge(a, b)
            else:
                counter.delete_edge(a, b)
    elif kind == "batch":
        counter.apply_batch(_random_ops(counter, rng, 6),
                            rebuild_threshold=2.0, on_invalid="skip")
    elif kind == "rebuild":
        stats = counter.apply_batch(_random_ops(counter, rng, 4),
                                    rebuild_threshold=-1.0,
                                    on_invalid="skip")
        return not stats.rebuilt
    elif kind == "add_vertex":
        v = counter.add_vertex()
        counter.insert_edge(v, rng.randrange(v))
        return False
    elif kind == "stray":
        # A snapshot nobody keeps between two changes: the next one's
        # predecessor is this one, not the one the caller holds.
        counter.apply_batch(_random_ops(counter, rng, 3),
                            rebuild_threshold=2.0, on_invalid="skip")
        counter.snapshot()
        counter.apply_batch(_random_ops(counter, rng, 3),
                            rebuild_threshold=2.0, on_invalid="skip")
        return False
    return True


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("seed", range(6))
def test_epoch_log_matches_scan(seed, strategy):
    """Between each two consecutive snapshots the log gives the scan's
    list, or says it cannot.  Minimality's CLEAN-LABEL rewrites whole
    vertices (``replace_vertex``, the ``_claim`` path); every other
    write patches entries in place (the ``_own`` path)."""
    rng = random.Random(seed)
    counter = ShortestCycleCounter(
        build_counter(seed=seed, n=14, m=36).index, strategy
    )
    snaps = [counter.snapshot()]
    fast_steps = 0
    for _ in range(24):
        logged = _step(counter, rng)
        snaps.append(counter.snapshot())
        for side in SIDES:
            prev = getattr(snaps[-2].index, side)
            cur = getattr(snaps[-1].index, side)
            claimed = cur.claimed_since(prev)
            assert (claimed is not None) == logged
            if len(prev) == len(cur):
                assert _dirty_vertices(prev, cur) == _scan(prev, cur)
            if claimed is not None:
                assert claimed == _scan(prev, cur)
                fast_steps += 1
            # A delta checkpoint's parent is several epochs back: the
            # log cannot answer and the scan runs.
            if len(snaps) > 2:
                older = getattr(snaps[-3].index, side)
                assert cur.claimed_since(older) is None
                if len(older) == len(cur):
                    assert _dirty_vertices(older, cur) == _scan(older, cur)
    assert fast_steps > 0


def test_unsnapshotted_store_has_no_log():
    counter = build_counter(seed=3)
    store = counter.index.store_in
    assert store.claimed_since(store) is None
    first = counter.snapshot().index.store_in
    counter.insert_edge(*next(
        (a, b) for a in range(10) for b in range(10)
        if a != b and not counter.graph.has_edge(a, b)
    ))
    second = counter.snapshot().index.store_in
    assert first.claimed_since(first) is None
    assert second.claimed_since(first) == _scan(first, second)
