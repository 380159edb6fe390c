"""Differential properties: batch queries vs the scalar kernels.

``sccnt_many`` / ``spcnt_many`` promise bit-identity with the scalar
loops over *any* index state — fresh builds over random graphs, frozen
snapshots left behind by update streams, and stores whose counts
straddle the 24-bit saturation boundary.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csc import CSCIndex
from repro.core.maintenance import delete_edge, insert_edge
from repro.labeling.labelstore import COUNT_SATURATED
from tests.conftest import digraphs


def _assert_bulk_matches_scalar(index, pairs):
    n = index.graph.n
    vs = list(range(n)) + [n - 1, 0]
    assert index.sccnt_many(vs) == [index.sccnt(v) for v in vs]
    assert index.spcnt_many(pairs) == [
        index.spcnt(x, y) for x, y in pairs
    ]


def _some_pairs(n: int, seed: int, k: int = 40):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    pairs.append((0, 0))  # always include a self-pair
    return pairs


@st.composite
def graphs_with_updates(draw, max_n: int = 8, max_ops: int = 8):
    """A digraph plus a feasible per-edge update stream."""
    g = draw(st.integers(2, max_n).flatmap(lambda n: digraphs(max_n=n)))
    sim = g.copy()
    ops = []
    for _ in range(draw(st.integers(0, max_ops))):
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
            ops.append(("delete", a, b))
        elif absent:
            a, b = draw(st.sampled_from(absent))
            sim.add_edge(a, b)
            ops.append(("insert", a, b))
        else:
            break
    return g, ops


class TestBulkMatchesScalar:
    @settings(deadline=None, max_examples=60)
    @given(g=digraphs(max_n=12), seed=st.integers(0, 2**16))
    def test_fresh_build(self, g, seed):
        index = CSCIndex.build(g)
        _assert_bulk_matches_scalar(index, _some_pairs(g.n, seed))

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_after_update_stream(self, data):
        g, ops = data.draw(graphs_with_updates())
        index = CSCIndex.build(g)
        for op, a, b in ops:
            if op == "insert":
                insert_edge(index, a, b)
            else:
                delete_edge(index, a, b)
            _assert_bulk_matches_scalar(index, _some_pairs(g.n, g.n + a))

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_frozen_snapshot(self, data):
        """A snapshot keeps answering the captured state in bulk while
        the live index moves on."""
        g, ops = data.draw(graphs_with_updates(max_ops=4))
        index = CSCIndex.build(g)
        snap = index.snapshot()
        want = [snap.sccnt(v) for v in range(g.n)]
        for op, a, b in ops:
            if op == "insert":
                insert_edge(index, a, b)
            else:
                delete_edge(index, a, b)
        vs = list(range(g.n))
        assert snap.sccnt_many(vs) == want
        _assert_bulk_matches_scalar(index, _some_pairs(g.n, 7))

    @settings(deadline=None, max_examples=30)
    @given(
        g=digraphs(max_n=8),
        scale=st.sampled_from(
            [COUNT_SATURATED // 2, COUNT_SATURATED - 1, COUNT_SATURATED,
             COUNT_SATURATED + 1, COUNT_SATURATED * 3]
        ),
    )
    def test_saturated_entries(self, g, scale):
        """Scale every stored count toward/past the 24-bit boundary:
        saturated words plus overflow-table patch-ups must stay
        bit-identical between the two paths."""
        index = CSCIndex.build(g)
        for store in (index.store_in, index.store_out):
            for v in range(g.n):
                entries = [
                    (hub, dist, count * scale, flag)
                    for hub, dist, count, flag in store.entries(v)
                ]
                if entries:
                    store.replace_vertex(v, entries)
        _assert_bulk_matches_scalar(index, _some_pairs(g.n, scale % 97))
