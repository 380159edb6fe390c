"""Unit tests for the batch queries ``CSCIndex.sccnt_many`` /
``spcnt_many``.

The contract under test is bit-identity: the batch forms must return
exactly what the scalar kernels return, whatever the batch looks like
(duplicates, self-pairs, unreachable vertices, saturated counts, empty),
must fail *whole-batch* with a typed error naming every offender —
never a partial result or a mid-batch ``IndexError`` — and must answer
each distinct query once.
"""

import random

import pytest

from repro.core.csc import CSCIndex
from repro.core.maintenance import delete_edge, insert_edge
from repro.errors import BatchVertexError, VertexError
from repro.graph.digraph import DiGraph
from repro.labeling.labelstore import COUNT_SATURATED, LabelStore
from repro.labeling.ordering import positions
from repro.paperdata import figure2_graph
from repro.types import CycleCount, PathCount
from tests.conftest import random_digraph


@pytest.fixture(scope="module")
def fig2_index():
    return CSCIndex.build(figure2_graph())


@pytest.fixture(scope="module")
def rnd_index():
    return CSCIndex.build(random_digraph(40, 160, seed=11))


def _scalar_sccnt(index, vs):
    return [index.sccnt(v) for v in vs]


def _scalar_spcnt(index, pairs):
    return [index.spcnt(x, y) for x, y in pairs]


class TestBitIdentity:
    def test_sccnt_all_vertices(self, fig2_index, rnd_index):
        for index in (fig2_index, rnd_index):
            vs = list(range(index.graph.n))
            assert index.sccnt_many(vs) == _scalar_sccnt(index, vs)

    def test_spcnt_all_pairs(self, fig2_index):
        n = fig2_index.graph.n
        pairs = [(x, y) for x in range(n) for y in range(n)]
        assert fig2_index.spcnt_many(pairs) == _scalar_spcnt(
            fig2_index, pairs
        )

    def test_spcnt_random_pairs(self, rnd_index):
        rng = random.Random(3)
        n = rnd_index.graph.n
        pairs = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(500)
        ]
        assert rnd_index.spcnt_many(pairs) == _scalar_spcnt(
            rnd_index, pairs
        )

    def test_duplicates_and_self_pairs(self, fig2_index):
        vs = [3, 3, 0, 3, 9, 0, 0]
        assert fig2_index.sccnt_many(vs) == _scalar_sccnt(fig2_index, vs)
        pairs = [(2, 2), (2, 5), (2, 2), (5, 2), (0, 0)]
        assert fig2_index.spcnt_many(pairs) == _scalar_spcnt(
            fig2_index, pairs
        )

    def test_result_types_match_scalar(self, fig2_index):
        (c,) = fig2_index.sccnt_many([6])
        assert isinstance(c, CycleCount)
        assert (c.count, c.length, c.has_cycle) == (3, 6, True)
        (p,) = fig2_index.spcnt_many([(6, 3)])
        assert isinstance(p, PathCount)
        assert p.reachable

    def test_empty_batches(self, fig2_index):
        assert fig2_index.sccnt_many([]) == []
        assert fig2_index.spcnt_many([]) == []

    def test_acyclic_and_unreachable(self):
        g = DiGraph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        index = CSCIndex.build(g)
        vs = list(range(5))
        assert index.sccnt_many(vs) == _scalar_sccnt(index, vs)
        pairs = [(4, 0), (0, 4), (1, 2), (2, 1)]
        assert index.spcnt_many(pairs) == _scalar_spcnt(index, pairs)


class TestValidation:
    def test_sccnt_names_every_offender(self, fig2_index):
        with pytest.raises(BatchVertexError) as exc:
            fig2_index.sccnt_many([0, 99, 3, -1, 10])
        assert exc.value.bad == [(1, 99), (3, -1), (4, 10)]
        assert "3 invalid vertex id(s)" in str(exc.value)

    def test_spcnt_names_every_offender(self, fig2_index):
        with pytest.raises(BatchVertexError) as exc:
            fig2_index.spcnt_many([(0, 1), (99, 2), (3, -4)])
        assert exc.value.bad == [(1, 99), (2, -4)]

    def test_batch_error_is_a_vertex_error(self, fig2_index):
        with pytest.raises(VertexError):
            fig2_index.sccnt_many([42])

    def test_rejects_floats_like_list_indexing(self, fig2_index):
        with pytest.raises(TypeError):
            fig2_index.sccnt_many([1.5])
        with pytest.raises(TypeError):
            fig2_index.spcnt_many([(0, 1.5)])

    def test_accepts_index_objects(self, fig2_index):
        class Id:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        assert fig2_index.sccnt_many([Id(v) for v in range(4)]) == \
            _scalar_sccnt(fig2_index, range(4))
        assert fig2_index.spcnt_many([(Id(0), 1), (2, Id(3))]) == \
            _scalar_spcnt(fig2_index, [(0, 1), (2, 3)])
        with pytest.raises(BatchVertexError) as exc:
            fig2_index.sccnt_many([Id(1), Id(99)])
        assert exc.value.bad == [(1, 99)]


def _saturated_index(count: int) -> CSCIndex:
    """A hand-seeded two-vertex index whose joins multiply ``count`` by
    itself — the product overflows 24 bits long before the field does,
    and the stored entries sit exactly at the requested boundary."""
    store_in = LabelStore(2)
    store_out = LabelStore(2)
    # v1 reaches hub 0 (position 0) at distance 1 in both directions.
    store_in.replace_vertex(1, [(0, 1, count, False)])
    store_out.replace_vertex(1, [(0, 1, count, False)])
    store_in.replace_vertex(0, [(0, 0, 1, True)])
    store_out.replace_vertex(0, [(0, 0, 1, True)])
    order = [0, 1]
    return CSCIndex(DiGraph(2), order, positions(order), store_in,
                    store_out)


class TestSaturationBoundary:
    """Counts straddling the 24-bit field: 2^24-2 packs in-word,
    2^24-1 and 2^24 take the saturated-marker + overflow-table path.
    The bulk backend must agree with the scalar kernel bit for bit and
    keep the exact values."""

    @pytest.mark.parametrize(
        "count",
        [COUNT_SATURATED - 1, COUNT_SATURATED, COUNT_SATURATED + 1],
        ids=["2^24-2", "2^24-1", "2^24"],
    )
    def test_boundary_counts_exact(self, count):
        index = _saturated_index(count)
        want_sc = [index.sccnt(v) for v in (0, 1)]
        assert index.sccnt_many([0, 1]) == want_sc
        assert want_sc[1].count == count * count  # exact, > 2^24
        pairs = [(1, 0), (0, 1), (1, 1)]
        assert index.spcnt_many(pairs) == _scalar_spcnt(index, pairs)

    def test_diamond_chain_cycle_beyond_24_bits(self):
        from tests.test_large_counts import diamond_chain

        k = 26
        g, s, t = diamond_chain(k)
        g.add_edge(t, s)
        index = CSCIndex.build(g)
        vs = [s, t, 1, s]
        res = index.sccnt_many(vs)
        assert res == _scalar_sccnt(index, vs)
        assert res[0].count == 2**k


class TestDedup:
    """Duplicates are answered once: a batch over ``k`` distinct ids
    costs ``k`` scalar queries, whatever its length."""

    def test_sccnt_kernel_called_once_per_distinct_id(self, monkeypatch):
        index = CSCIndex.build(random_digraph(40, 160, seed=11))
        rng = random.Random(4)
        hot = rng.sample(range(40), 25)
        vs = [rng.choice(hot) for _ in range(4000)]
        k = len(set(vs))
        want = _scalar_sccnt(index, vs)
        calls = []
        scalar = CSCIndex.sccnt

        def counting(self, v):
            calls.append(v)
            return scalar(self, v)

        monkeypatch.setattr(CSCIndex, "sccnt", counting)
        assert index.sccnt_many(vs) == want
        assert len(calls) == k
        assert sorted(calls) == sorted(set(vs))

    def test_spcnt_kernel_called_once_per_distinct_pair(self, monkeypatch):
        index = CSCIndex.build(random_digraph(40, 160, seed=11))
        rng = random.Random(5)
        hot = [(rng.randrange(40), rng.randrange(40)) for _ in range(30)]
        pairs = [rng.choice(hot) for _ in range(4000)]
        want = _scalar_spcnt(index, pairs)
        calls = []
        scalar = CSCIndex.spcnt

        def counting(self, x, y):
            calls.append((x, y))
            return scalar(self, x, y)

        monkeypatch.setattr(CSCIndex, "spcnt", counting)
        assert index.spcnt_many(pairs) == want
        assert len(calls) == len(set(pairs))


class TestMutations:
    def test_bulk_tracks_mutations(self):
        g = random_digraph(15, 50, seed=9)
        index = CSCIndex.build(g)
        vs = list(range(g.n))
        assert index.sccnt_many(vs) == _scalar_sccnt(index, vs)
        edges = sorted(g.edges())
        delete_edge(index, *edges[0])
        assert index.sccnt_many(vs) == _scalar_sccnt(index, vs)
        if not index.graph.has_edge(edges[0][1], edges[0][0]):
            insert_edge(index, edges[0][1], edges[0][0])
            assert index.sccnt_many(vs) == _scalar_sccnt(index, vs)

    def test_snapshot_shares_then_diverges(self):
        g = random_digraph(15, 50, seed=21)
        index = CSCIndex.build(g)
        vs = list(range(g.n))
        snap = index.snapshot()
        before = snap.sccnt_many(vs)
        edges = sorted(g.edges())
        delete_edge(index, *edges[0])
        # The live index answers the new state, the frozen snapshot
        # still answers the captured one — both bit-identical to their
        # own scalar kernels.
        assert index.sccnt_many(vs) == _scalar_sccnt(index, vs)
        assert snap.sccnt_many(vs) == before
        assert snap.sccnt_many(vs) == [snap.sccnt(v) for v in vs]
