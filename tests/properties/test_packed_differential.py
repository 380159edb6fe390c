"""Differential properties: packed-store kernels vs the seed tuple-list
implementation.

The packed :class:`~repro.labeling.labelstore.LabelStore` and its
merge-join kernels replaced the seed's list-of-tuples representation on
every hot path.  These properties pin the replacement to the frozen seed
kernels (:mod:`tests.properties.legacy_labels`) across random graphs and update
streams: identical cycle counts from ``sccnt``, identical distances from
``qdist_in_in`` / ``qdist_out_in`` / ``cycle_gb_distance``, identical
``spcnt`` from HP-SPC, and a lossless round-trip between the packed store
and the tuple-list world.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csc import CSCIndex
from repro.core.maintenance import delete_edge, insert_edge
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.labelstore import LabelStore
from tests.conftest import digraphs
from tests.properties.legacy_labels import (
    legacy_cycle_gb_distance,
    legacy_merge_labels,
    legacy_qdist_in_in,
    legacy_qdist_out_in,
    legacy_sccnt,
)


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


def _legacy_tables(index: CSCIndex):
    return index.store_out.to_lists(), index.store_in.to_lists()


def _assert_queries_match(index: CSCIndex) -> None:
    label_out, label_in = _legacy_tables(index)
    pos = index.pos
    n = index.graph.n
    for v in range(n):
        assert index.sccnt(v) == legacy_sccnt(label_out, label_in, v)
        assert index.cycle_gb_distance(v) == legacy_cycle_gb_distance(
            label_out, label_in, v
        )
    for x in range(n):
        for y in range(n):
            assert index.qdist_out_in(x, y) == legacy_qdist_out_in(
                label_out, label_in, x, y
            )
            assert index.qdist_in_in(x, y) == legacy_qdist_in_in(
                label_out, label_in, pos, x, y
            )


@settings(max_examples=50, deadline=None)
@given(digraphs(max_n=8))
def test_static_build_matches_legacy_kernels(g):
    """Fresh builds: every query kernel agrees with the seed tuple-list
    implementation on the same label data."""
    _assert_queries_match(CSCIndex.build(g))


@settings(max_examples=30, deadline=None)
@given(case=graphs_with_updates())
def test_maintained_index_matches_legacy_kernels(case):
    """After a mixed per-edge update stream (INCCNT/DECCNT patching the
    packed entries in place), the kernels still agree with the seed
    implementation run on the maintained labels."""
    g, ops = case
    index = CSCIndex.build(g)
    for op, a, b in ops:
        if op == "insert":
            insert_edge(index, a, b)
        else:
            delete_edge(index, a, b)
    _assert_queries_match(index)


@settings(max_examples=40, deadline=None)
@given(digraphs(max_n=8))
def test_hpspc_spcnt_matches_legacy_merge(g):
    """HP-SPC's map-join ``spcnt`` equals the seed's sorted tuple merge."""
    idx = HPSPCIndex.build(g)
    label_out = idx.store_out.to_lists()
    label_in = idx.store_in.to_lists()
    for s in range(g.n):
        for t in range(g.n):
            d, c = legacy_merge_labels(label_out[s], label_in[t])
            got = idx.spcnt(s, t)
            if d >= 1 << 60:
                assert got == (float("inf"), 0)
            else:
                assert got == (d, c)


@settings(max_examples=40, deadline=None)
@given(digraphs(max_n=8))
def test_store_round_trips_lossless(g):
    """store -> lists -> store and store -> bytes -> store are lossless."""
    index = CSCIndex.build(g)
    for store in (index.store_in, index.store_out):
        again = LabelStore.from_lists(store.to_lists())
        assert store.eq_entries(again)
        reloaded = LabelStore.from_bytes(store.to_bytes())
        assert store.eq_entries(reloaded)
        assert reloaded.to_lists() == store.to_lists()
