"""Differential property tests for the batched maintenance engine.

The contract of ``apply_batch``: for any feasible mixed op sequence, the
final ``sccnt`` of *every* vertex is bit-identical to (a) the per-edge
sequential INCCNT/DECCNT replay and (b) a from-scratch rebuild of the
final graph — under both maintenance strategies, with and without the
rebuild fallback engaged.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bfs_cycle import bfs_cycle_count
from repro.core.batch import apply_batch
from repro.core.csc import CSCIndex
from repro.core.maintenance import STRATEGIES, delete_edge, insert_edge
from tests.conftest import digraphs
from tests.properties.invariants import (
    assert_label_invariants,
    assert_maps_match_packed,
    assert_minimal_entries,
)


@st.composite
def graphs_with_ops(draw, max_n: int = 8, max_ops: int = 12):
    """A digraph plus a feasible mixed op sequence against it.

    Each op is drawn against the simulated edge state at its point in the
    sequence, so the result is always applicable both per edge and as one
    batch.  Edges may repeat across ops (insert-then-delete and
    delete-then-reinsert cancellations arise naturally).
    """
    g = draw(digraphs(max_n=max_n))
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
        can_delete = bool(present)
        can_insert = bool(absent)
        if not (can_delete or can_insert):
            break
        if can_delete and (not can_insert or draw(st.booleans())):
            a, b = draw(st.sampled_from(present))
            sim.remove_edge(a, b)
            ops.append(("delete", a, b))
        else:
            a, b = draw(st.sampled_from(absent))
            sim.add_edge(a, b)
            ops.append(("insert", a, b))
    return g, ops


def _sequential_replay(g, ops, strategy):
    index = CSCIndex.build(g.copy())
    for op, a, b in ops:
        if op == "insert":
            insert_edge(index, a, b, strategy)
        else:
            delete_edge(index, a, b)
    return index


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=40, deadline=None)
@given(case=graphs_with_ops())
def test_batch_matches_sequential_and_rebuild(case, strategy):
    g, ops = case
    sequential = _sequential_replay(g, ops, strategy)

    batched = CSCIndex.build(g.copy())
    apply_batch(batched, ops, strategy, rebuild_threshold=2.0)

    assert batched.graph == sequential.graph
    for index in (sequential, batched):
        assert_maps_match_packed(index.store_in)
        assert_maps_match_packed(index.store_out)
    rebuilt = CSCIndex.build(batched.graph.copy())
    for v in g.vertices():
        expected = sequential.sccnt(v)
        assert batched.sccnt(v) == expected
        assert rebuilt.sccnt(v) == expected
        assert expected == bfs_cycle_count(batched.graph, v)


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=30, deadline=None)
@given(case=graphs_with_ops())
def test_batch_invariants_incremental_path(case, strategy):
    """Label invariants after a batch forced through the incremental
    path (rebuild_threshold=2.0 can never be exceeded)."""
    g, ops = case
    index = CSCIndex.build(g.copy())
    stats = apply_batch(index, ops, strategy, rebuild_threshold=2.0)
    assert not stats.rebuilt
    assert_label_invariants(index)
    if strategy == "minimality":
        assert_minimal_entries(index)


@settings(max_examples=25, deadline=None)
@given(case=graphs_with_ops())
def test_batch_invariants_rebuild_fallback(case):
    """Label invariants after the rebuild-fallback path (threshold
    -1 forces it whenever the batch nets any mutation)."""
    g, ops = case
    index = CSCIndex.build(g.copy())
    stats = apply_batch(index, ops, rebuild_threshold=-1.0)
    if stats.applied:
        assert stats.rebuilt
    assert_label_invariants(index)
    assert_minimal_entries(index)  # a fresh build is canonical


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(deadline=None)  # example budget comes from the active profile
@given(case=graphs_with_ops(max_n=10, max_ops=20))
def test_batch_differential_deep(case, strategy):
    """Nightly-profile variant: bigger graphs, longer op sequences, and
    the default cost model (so both engine paths get exercised)."""
    g, ops = case
    sequential = _sequential_replay(g, ops, strategy)
    batched = CSCIndex.build(g.copy())
    apply_batch(batched, ops, strategy)
    assert batched.graph == sequential.graph
    for v in g.vertices():
        assert batched.sccnt(v) == sequential.sccnt(v)
    assert_label_invariants(batched)
