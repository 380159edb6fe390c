"""Tests for INCCNT — incremental index maintenance (Algorithms 5–7)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bfs_cycle import bfs_cycle_count
from repro.core.batch import apply_batch
from repro.core.csc import CSCIndex
from repro.core.maintenance import insert_edge
from repro.errors import EdgeExistsError
from repro.graph.digraph import DiGraph
from repro.labeling.hpspc import HPSPCIndex
from tests.conftest import digraphs, random_digraph


def assert_queries_match_rebuild(index: CSCIndex):
    """Post-update queries must equal a from-scratch rebuild with the same
    vertex order (and hence the BFS ground truth)."""
    rebuilt = CSCIndex.build(index.graph, index.order)
    for v in index.graph.vertices():
        assert index.sccnt(v) == rebuilt.sccnt(v)
        assert index.sccnt(v) == bfs_cycle_count(index.graph, v)


class TestBasicInsertions:
    def test_insert_creates_first_cycle(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        idx = CSCIndex.build(g)
        assert idx.sccnt(0).count == 0
        insert_edge(idx, 2, 0)
        for v in range(3):
            assert idx.sccnt(v) == (1, 3)

    def test_insert_shortens_cycle(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        idx = CSCIndex.build(g)
        assert idx.sccnt(0) == (1, 4)
        insert_edge(idx, 1, 0)
        assert idx.sccnt(0) == (1, 2)
        assert idx.sccnt(2) == (1, 4)

    def test_insert_adds_parallel_shortest_cycle(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 3), (3, 0), (0, 2)])
        idx = CSCIndex.build(g)
        assert idx.sccnt(0) == (1, 3)
        insert_edge(idx, 2, 3)  # second path 0 -> 2 -> 3 -> 0
        assert idx.sccnt(0) == (2, 3)
        assert idx.sccnt(3) == (2, 3)

    def test_insert_into_empty_graph(self):
        g = DiGraph(3)
        idx = CSCIndex.build(g)
        insert_edge(idx, 0, 1)
        insert_edge(idx, 1, 0)
        assert idx.sccnt(0) == (1, 2)

    def test_graph_mutated(self):
        g = DiGraph(2)
        idx = CSCIndex.build(g)
        insert_edge(idx, 0, 1)
        assert idx.graph.has_edge(0, 1)

    def test_duplicate_insert_rejected_before_index_touch(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        idx = CSCIndex.build(g)
        before = [list(e) for e in idx.label_in]
        with pytest.raises(EdgeExistsError):
            insert_edge(idx, 0, 1)
        assert [list(e) for e in idx.label_in] == before

    def test_unknown_strategy_rejected(self):
        g = DiGraph(3)
        idx = CSCIndex.build(g)
        with pytest.raises(ValueError):
            insert_edge(idx, 0, 1, strategy="yolo")
        assert not idx.graph.has_edge(0, 1)


class TestStats:
    def test_stats_shape(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        idx = CSCIndex.build(g)
        stats = insert_edge(idx, 2, 0)
        assert stats.operation == "insert"
        assert stats.edge == (2, 0)
        assert stats.strategy == "redundancy"
        assert stats.hubs_processed >= 1
        assert stats.entries_added >= 1
        assert stats.net_entry_delta == stats.entries_added - stats.entries_removed

    def test_redundancy_never_removes(self):
        g = random_digraph(12, 20, seed=1)
        idx = CSCIndex.build(g)
        for edge in [(0, 5), (5, 0), (3, 7)]:
            if not g.has_edge(*edge):
                stats = insert_edge(idx, *edge, strategy="redundancy")
                assert stats.entries_removed == 0

    def test_minimality_may_remove(self):
        """Inserting a shortcut makes older entries redundant; minimality
        cleans them, redundancy leaves them."""
        g = DiGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        red = CSCIndex.build(g)
        mini = red.copy()
        insert_edge(red, 1, 4, strategy="redundancy")
        insert_edge(mini, 1, 4, strategy="minimality")
        assert mini.total_entries() <= red.total_entries()


class TestEquivalenceWithRebuild:
    @settings(max_examples=80, deadline=None)
    @given(digraphs(max_n=9), st.integers(0, 10_000))
    def test_random_insertion_redundancy(self, g, pick):
        non_edges = [
            (a, b)
            for a in g.vertices()
            for b in g.vertices()
            if a != b and not g.has_edge(a, b)
        ]
        if not non_edges:
            return
        a, b = non_edges[pick % len(non_edges)]
        idx = CSCIndex.build(g)
        insert_edge(idx, a, b, strategy="redundancy")
        assert_queries_match_rebuild(idx)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=8), st.integers(0, 10_000))
    def test_random_insertion_minimality(self, g, pick):
        non_edges = [
            (a, b)
            for a in g.vertices()
            for b in g.vertices()
            if a != b and not g.has_edge(a, b)
        ]
        if not non_edges:
            return
        a, b = non_edges[pick % len(non_edges)]
        idx = CSCIndex.build(g)
        insert_edge(idx, a, b, strategy="minimality")
        assert_queries_match_rebuild(idx)

    def test_insertion_sequence(self):
        g = random_digraph(14, 15, seed=2)
        idx = CSCIndex.build(g)
        import random

        rng = random.Random(5)
        inserted = 0
        while inserted < 12:
            a, b = rng.randrange(14), rng.randrange(14)
            if a != b and not idx.graph.has_edge(a, b):
                insert_edge(idx, a, b)
                inserted += 1
        assert_queries_match_rebuild(idx)


class TestMinimalityInvariant:
    def test_minimality_label_sets_match_rebuild(self):
        """Under the minimality strategy the label *sets* (not just query
        results) must equal a rebuild's — Theorem V.3's minimal index is
        unique for a fixed order."""
        g = random_digraph(10, 14, seed=3)
        idx = CSCIndex.build(g)
        import random

        rng = random.Random(7)
        inserted = 0
        while inserted < 8:
            a, b = rng.randrange(10), rng.randrange(10)
            if a != b and not idx.graph.has_edge(a, b):
                insert_edge(idx, a, b, strategy="minimality")
                inserted += 1
        rebuilt = CSCIndex.build(idx.graph, idx.order)
        for v in idx.graph.vertices():
            assert _strip_flags(idx.label_in[v]) == _strip_flags(
                rebuilt.label_in[v]
            ), f"Lin({v}) diverged"
            assert _strip_flags(idx.label_out[v]) == _strip_flags(
                rebuilt.label_out[v]
            ), f"Lout({v}) diverged"


def _strip_flags(entries):
    return [(q, d, c) for q, d, c, _f in entries]


def _insert_random(index, rng, k, strategy):
    n = index.graph.n
    done = 0
    while done < k:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not index.graph.has_edge(a, b):
            insert_edge(index, a, b, strategy)
            done += 1


class TestInvertedIndexOnDemand:
    """Only CLEAN-LABEL and deletion repair read the inverted index, so
    redundancy inserts neither build it nor need it; once built, every
    insert keeps it exact."""

    @pytest.mark.parametrize("kind", [CSCIndex, HPSPCIndex],
                             ids=["csc", "hpspc"])
    def test_redundancy_inserts_leave_it_unbuilt(self, kind):
        idx = kind.build(random_digraph(30, 70, seed=5))
        _insert_random(idx, random.Random(1), 12, "redundancy")
        assert idx._inv_in is None and idx._inv_out is None
        _insert_random(idx, random.Random(2), 3, "minimality")
        assert idx._inv_in == idx.store_in.inverted()
        assert idx._inv_out == idx.store_out.inverted()

    def test_mixed_stream_keeps_it_exact(self):
        """Redundancy inserts, a deletion batch below the rebuild
        threshold (its repair builds the index), more redundancy inserts
        (which now maintain it), then minimality inserts."""
        idx = CSCIndex.build(random_digraph(40, 110, seed=9))
        rng = random.Random(3)
        _insert_random(idx, rng, 10, "redundancy")
        assert idx._inv_in is None
        edges = sorted(idx.graph.edges())
        stats = apply_batch(
            idx, [("delete", a, b) for a, b in rng.sample(edges, 2)],
            rebuild_threshold=2.0,  # at most 2n sides: never rebuild
        )
        assert not stats.rebuilt
        assert idx._inv_in is not None
        _insert_random(idx, rng, 10, "redundancy")
        _insert_random(idx, rng, 6, "minimality")
        assert idx.validate() == []
        assert idx._inv_in == idx.store_in.inverted()
        assert idx._inv_out == idx.store_out.inverted()
        assert_queries_match_rebuild(idx)
