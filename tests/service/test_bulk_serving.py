"""Bulk queries through the serving stack.

``Snapshot.count_many`` / ``spcnt_many``, the ``ServeEngine``
pass-throughs and ``drive_mixed(bulk_batch=...)``.
"""

import pytest

from repro.core.counter import ShortestCycleCounter
from repro.errors import BatchVertexError, VertexError
from repro.service import ServeEngine
from repro.service.driver import drive_mixed, serial_replay
from tests.conftest import random_digraph


@pytest.fixture
def counter():
    return ShortestCycleCounter.build(random_digraph(24, 96, seed=13))


class TestSnapshotBulk:
    def test_count_many_matches_scalar(self, counter):
        snap = counter.snapshot()
        vs = list(range(snap.n)) + [0, 0, 5]
        assert snap.count_many(vs) == [snap.count(v) for v in vs]

    def test_spcnt_many_matches_scalar(self, counter):
        snap = counter.snapshot()
        pairs = [(x, y) for x in range(snap.n) for y in (0, 3, x)]
        assert snap.spcnt_many(pairs) == [
            snap.spcnt(x, y) for x, y in pairs
        ]

    def test_batch_error_is_vertex_error(self, counter):
        snap = counter.snapshot()
        with pytest.raises(VertexError) as exc:
            snap.count_many([0, snap.n, -2])
        assert isinstance(exc.value, BatchVertexError)
        assert exc.value.bad == [(1, snap.n), (2, -2)]

    def test_counter_facade(self, counter):
        vs = [0, 1, 2, 1]
        assert counter.count_many(vs) == [counter.count(v) for v in vs]
        pairs = [(0, 1), (2, 2)]
        assert counter.spcnt_many(pairs) == [
            counter.spcnt(x, y) for x, y in pairs
        ]


class TestEngineBulk:
    def test_engine_pass_throughs(self, counter):
        with ServeEngine(counter) as engine:
            snap = engine.snapshot()
            vs = [0, 1, 2, 3, 2, 1]
            assert engine.count_many(vs) == [snap.count(v) for v in vs]
            pairs = [(0, 5), (5, 0), (4, 4)]
            assert engine.spcnt_many(pairs) == [
                snap.spcnt(x, y) for x, y in pairs
            ]

    def test_drive_mixed_bulk_batch(self):
        g = random_digraph(20, 70, seed=4)
        edges = sorted(g.edges())
        ops = [("delete", *edges[0]), ("insert", edges[0][1], edges[0][0])] \
            if not g.has_edge(edges[0][1], edges[0][0]) \
            else [("delete", *edges[0])]
        result = drive_mixed(
            g, ops, readers=2, bulk_batch=32,
        )
        assert result.errors == []
        assert result.ops_admitted == len(ops)
        # Readers really ran the bulk path: query totals are multiples
        # of the batch size, not of the scalar burst.
        for c in result.reader_queries:
            assert c % 32 == 0
        want = serial_replay(g, ops)
        final = result.final
        assert final.count_many(range(final.n)) == [
            want.count(v) for v in range(final.n)
        ]

    def test_drive_mixed_bulk_batch_validation(self):
        g = random_digraph(6, 10, seed=1)
        with pytest.raises(ValueError):
            drive_mixed(g, [], bulk_batch=0)
