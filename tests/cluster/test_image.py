"""Memory-mapped label images against the snapshots they publish.

A replica answers routed reads from a mapped image of its packed words
(:mod:`repro.cluster.image`), joined by the word kernels of
:mod:`repro.labeling.labelstore`.  The contract is answer-identity with
:class:`~repro.service.Snapshot` for all five QueryAPI reads, at every
epoch, through incremental appends, compactions, withdrawals and
saturated counts, and the same errors for out-of-range ids.
"""

import os
import random

import pytest

from repro.cluster.image import ImageReader, ImageWriter
from repro.core.counter import ShortestCycleCounter
from repro.errors import BatchVertexError, VertexError
from repro.graph.digraph import DiGraph
from repro.labeling.labelstore import COUNT_SATURATED
from repro.workloads.updates import mixed_update_stream

from tests.test_large_counts import diamond_chain


def random_graph(seed=3, n=26, m=80):
    rng = random.Random(seed)
    g = DiGraph(n)
    while g.m < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


def saturated_graph():
    """2^26 shortest cycles through the chain's ends: counts that
    saturate the 24-bit field and live in the overflow tables."""
    g, s, t = diamond_chain(26)
    g.add_edge(t, s)
    return g


def assert_same_answers(image, snap, pairs=None):
    """All five reads of ``image`` equal ``snap``'s."""
    n = snap.n
    assert image.n == n
    assert image.epoch == snap.epoch
    vertices = list(range(n))
    assert [image.sccnt(v) for v in vertices] == [
        snap.sccnt(v) for v in vertices
    ]
    batch = vertices + vertices[::3]
    assert image.sccnt_many(batch) == snap.sccnt_many(batch)
    if pairs is None:
        pairs = [(x, y) for x in vertices for y in vertices]
    assert [image.spcnt(x, y) for x, y in pairs] == [
        snap.spcnt(x, y) for x, y in pairs
    ]
    assert image.spcnt_many(pairs) == snap.spcnt_many(pairs)
    for k in (1, 5, n):
        assert image.top_suspicious(k) == snap.top_suspicious(k)


def same_error(call_a, call_b):
    """Both calls raise the same error type with the same message (and,
    for batches, the same offending positions)."""
    with pytest.raises(VertexError) as a:
        call_a()
    with pytest.raises(VertexError) as b:
        call_b()
    assert type(a.value) is type(b.value)
    assert str(a.value) == str(b.value)
    assert getattr(a.value, "bad", None) == getattr(b.value, "bad", None)


@pytest.fixture
def image_path(tmp_path):
    return str(tmp_path / "labels.image")


class TestDifferential:
    @pytest.mark.parametrize("make", [random_graph, saturated_graph],
                             ids=["random", "saturated"])
    def test_every_epoch_answers_as_its_snapshot(self, make, image_path):
        """Over 24 epoch flips of a seeded mixed stream (one batch of
        deletions takes the rebuild fallback), every epoch's mapped
        answers equal the snapshot's; an epoch loaded early keeps
        answering as its own snapshot after later appends and
        compactions."""
        counter = ShortestCycleCounter.build(make())
        writer = ImageWriter(image_path)
        reader = ImageReader(image_path)
        first = counter.snapshot(0)
        writer.publish(first)
        held = reader.current()
        inode = os.stat(image_path).st_ino
        n = counter.graph.n
        rng = random.Random(11)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
        saturated = rebuilds = 0
        for epoch in range(1, 25):
            if epoch == 12:
                edges = sorted(counter.graph.edges())
                ops = [("delete", a, b) for a, b in edges[::4]]
            else:
                ops = mixed_update_stream(counter.graph, 4, epoch)
            stats = counter.apply_batch(ops, on_invalid="skip")
            rebuilds += stats.rebuilt
            snap = counter.snapshot(epoch)
            writer.publish(snap)
            assert_same_answers(reader.current(), snap, pairs)
            saturated += any(
                c.count >= COUNT_SATURATED for c in snap.sccnt_many(range(n))
            )
        assert rebuilds >= 1
        # The arena filled at least once and the image moved to a fresh
        # file; the epoch loaded first still answers as it did.
        assert os.stat(image_path).st_ino != inode
        assert_same_answers(held, first, pairs)
        if make is saturated_graph:
            assert saturated >= 1
        writer.close()

    def test_saturated_counts_are_exact(self, image_path):
        g, s, t = diamond_chain(26)
        g.add_edge(t, s)
        counter = ShortestCycleCounter.build(g)
        writer = ImageWriter(image_path)
        writer.publish(counter.snapshot())
        image = ImageReader(image_path).current()
        assert image.sccnt(s) == (2**26, 2 * 26 + 1)
        assert image.spcnt(s, t) == counter.spcnt(s, t)
        assert image.spcnt(s, t).count == 2**26
        writer.close()

    def test_growing_vertex_count_rewrites_the_image(self, image_path):
        counter = ShortestCycleCounter.build(random_graph())
        writer = ImageWriter(image_path)
        reader = ImageReader(image_path)
        writer.publish(counter.snapshot(0))
        v = counter.add_vertex()
        counter.apply_batch([("insert", 0, v), ("insert", v, 1)])
        snap = counter.snapshot(1)
        writer.publish(snap)
        assert_same_answers(reader.current(), snap)
        writer.close()


class TestErrors:
    def test_out_of_range_ids_raise_as_snapshots_do(self, image_path):
        counter = ShortestCycleCounter.build(random_graph())
        snap = counter.snapshot()
        writer = ImageWriter(image_path)
        writer.publish(snap)
        image = ImageReader(image_path).current()
        n = snap.n
        for bad in (-1, n, n + 7):
            same_error(lambda b=bad: image.sccnt(b),
                       lambda b=bad: snap.sccnt(b))
            same_error(lambda b=bad: image.spcnt(b, 0),
                       lambda b=bad: snap.spcnt(b, 0))
            same_error(lambda b=bad: image.spcnt(0, b),
                       lambda b=bad: snap.spcnt(0, b))
        batch = [0, n, 3, -1, n + 2]
        same_error(lambda: image.sccnt_many(batch),
                   lambda: snap.sccnt_many(batch))
        pairs = [(0, 1), (n, 0), (2, -2), (n, n)]
        same_error(lambda: image.spcnt_many(pairs),
                   lambda: snap.spcnt_many(pairs))
        with pytest.raises(BatchVertexError) as err:
            image.sccnt_many(batch)
        assert err.value.bad == [(1, n), (3, -1), (4, n + 2)]
        writer.close()


class TestLifecycle:
    def test_withdraw_hides_the_image_until_the_next_publish(
        self, image_path
    ):
        counter = ShortestCycleCounter.build(random_graph())
        writer = ImageWriter(image_path)
        reader = ImageReader(image_path)
        old = counter.snapshot(0)
        writer.publish(old)
        held = reader.current()
        writer.withdraw()
        assert reader.current() is None
        # An epoch the caller already holds stays its own.
        assert_same_answers(held, old)
        counter.apply_batch(mixed_update_stream(counter.graph, 6, 2))
        new = counter.snapshot(1)
        writer.publish(new)
        assert_same_answers(reader.current(), new)
        writer.close()

    def test_close_withdraws_and_deletes(self, image_path):
        counter = ShortestCycleCounter.build(random_graph())
        writer = ImageWriter(image_path)
        reader = ImageReader(image_path)
        writer.publish(counter.snapshot())
        assert reader.current() is not None
        writer.close()
        assert not os.path.exists(image_path)
        assert reader.current() is None
        writer.close()  # idempotent

    def test_reader_waits_for_a_file(self, image_path):
        reader = ImageReader(image_path)
        assert reader.current() is None
        writer = ImageWriter(image_path)
        snap = ShortestCycleCounter.build(random_graph()).snapshot()
        writer.publish(snap)
        assert_same_answers(reader.current(), snap)
        writer.close()

    def test_republishing_the_same_snapshot_appends_nothing(
        self, image_path
    ):
        counter = ShortestCycleCounter.build(random_graph())
        writer = ImageWriter(image_path)
        snap = counter.snapshot()
        writer.publish(snap)
        size = os.stat(image_path).st_size
        end = writer._end
        writer.publish(snap)
        assert (writer._end, os.stat(image_path).st_size) == (end, size)
        writer.close()
