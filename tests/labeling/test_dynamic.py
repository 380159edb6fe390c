"""Tests for dynamic maintenance of the generic HP-SPC index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance import delete_edge, insert_edge
from repro.graph.digraph import DiGraph
from repro.graph.traversal import INF, count_shortest_paths
from repro.labeling.hpspc import HPSPCIndex
from tests.conftest import digraphs, random_digraph


def assert_all_pairs_correct(index: HPSPCIndex):
    g = index.graph
    for s in g.vertices():
        for t in g.vertices():
            expected = count_shortest_paths(g, s, t)
            got = index.spcnt(s, t)
            if expected[0] is INF:
                assert got == (float("inf"), 0)
            else:
                assert got == expected


class TestInsertion:
    def test_insert_new_shortest_path(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        idx = HPSPCIndex.build(g)
        insert_edge(idx, 0, 3)
        assert idx.spcnt(0, 3) == (1, 1)
        assert_all_pairs_correct(idx)

    def test_insert_parallel_path_accumulates(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 3), (0, 2)])
        idx = HPSPCIndex.build(g)
        insert_edge(idx, 2, 3)
        assert idx.spcnt(0, 3) == (2, 2)

    def test_insert_connects_components(self):
        g = DiGraph.from_edges(4, [(0, 1), (2, 3)])
        idx = HPSPCIndex.build(g)
        insert_edge(idx, 1, 2)
        assert idx.spcnt(0, 3) == (3, 1)
        assert_all_pairs_correct(idx)

    def test_duplicate_rejected(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        idx = HPSPCIndex.build(g)
        from repro.errors import EdgeExistsError

        with pytest.raises(EdgeExistsError):
            insert_edge(idx, 0, 1)

    def test_bad_strategy(self):
        idx = HPSPCIndex.build(DiGraph(2))
        with pytest.raises(ValueError):
            insert_edge(idx, 0, 1, strategy="nope")

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=8), st.integers(0, 10_000))
    def test_random_insertion_equivalence(self, g, pick):
        non_edges = [
            (a, b)
            for a in g.vertices()
            for b in g.vertices()
            if a != b and not g.has_edge(a, b)
        ]
        if not non_edges:
            return
        a, b = non_edges[pick % len(non_edges)]
        idx = HPSPCIndex.build(g)
        insert_edge(idx, a, b)
        assert_all_pairs_correct(idx)

    @settings(max_examples=30, deadline=None)
    @given(digraphs(max_n=7), st.integers(0, 10_000))
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
        idx = HPSPCIndex.build(g)
        insert_edge(idx, a, b, strategy="minimality")
        assert_all_pairs_correct(idx)


class TestDeletion:
    def test_delete_lengthens_path(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        idx = HPSPCIndex.build(g)
        delete_edge(idx, 0, 3)
        assert idx.spcnt(0, 3) == (3, 1)
        assert_all_pairs_correct(idx)

    def test_delete_disconnects(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        idx = HPSPCIndex.build(g)
        delete_edge(idx, 1, 2)
        assert idx.spcnt(0, 2) == (float("inf"), 0)

    def test_missing_edge_rejected(self):
        idx = HPSPCIndex.build(DiGraph(2))
        from repro.errors import EdgeNotFoundError

        with pytest.raises(EdgeNotFoundError):
            delete_edge(idx, 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=8), st.integers(0, 10_000))
    def test_random_deletion_equivalence(self, g, pick):
        edges = list(g.edges())
        if not edges:
            return
        a, b = edges[pick % len(edges)]
        idx = HPSPCIndex.build(g)
        delete_edge(idx, a, b)
        assert_all_pairs_correct(idx)

    def test_repair_bfs_count_is_one_per_repaired_side(self):
        """As for CSC deletions: one repair BFS per affected hub side,
        so a hub affected on both sides counts twice."""
        g = random_digraph(9, 22, seed=3)
        idx = HPSPCIndex.build(g)
        for a, b in list(g.edges())[:6]:
            stats = delete_edge(idx, a, b)
            sides = (
                stats.details["affected_in_hubs"]
                + stats.details["affected_out_hubs"]
            )
            assert sides >= stats.hubs_processed > 0
            assert stats.repair_bfs_count == sides
        assert_all_pairs_correct(idx)

    def test_label_sets_match_rebuild_after_deletions(self):
        g = random_digraph(9, 22, seed=3)
        idx = HPSPCIndex.build(g)
        import random

        rng = random.Random(4)
        for _ in range(5):
            edges = list(idx.graph.edges())
            if not edges:
                break
            delete_edge(idx, *rng.choice(edges))
        rebuilt = HPSPCIndex.build(idx.graph, idx.order)
        for v in idx.graph.vertices():
            assert [(q, d, c) for q, d, c, _ in idx.label_in[v]] == [
                (q, d, c) for q, d, c, _ in rebuilt.label_in[v]
            ]
            assert [(q, d, c) for q, d, c, _ in idx.label_out[v]] == [
                (q, d, c) for q, d, c, _ in rebuilt.label_out[v]
            ]


class TestMixedSequences:
    @settings(max_examples=30, deadline=None)
    @given(digraphs(max_n=7), st.integers(0, 10_000))
    def test_mixed_updates(self, g, seed):
        import random

        rng = random.Random(seed)
        idx = HPSPCIndex.build(g)
        n = g.n
        for _ in range(6):
            edges = list(idx.graph.edges())
            if edges and rng.random() < 0.5:
                delete_edge(idx, *rng.choice(edges))
            else:
                for _ in range(30):
                    a, b = rng.randrange(n), rng.randrange(n)
                    if a != b and not idx.graph.has_edge(a, b):
                        insert_edge(idx, a, b)
                        break
        assert_all_pairs_correct(idx)

    def test_baseline_counter_stays_correct_under_updates(self):
        """The HP-SPC SCCnt baseline with dynamic maintenance agrees with
        BFS after updates — update parity with CSC."""
        from repro.baselines.bfs_cycle import bfs_cycle_count
        from repro.baselines.hpspc_scc import hpspc_cycle_count

        g = random_digraph(10, 20, seed=6)
        idx = HPSPCIndex.build(g)
        import random

        rng = random.Random(8)
        for _ in range(8):
            edges = list(idx.graph.edges())
            if edges and rng.random() < 0.4:
                delete_edge(idx, *rng.choice(edges))
            else:
                for _ in range(40):
                    a, b = rng.randrange(10), rng.randrange(10)
                    if a != b and not idx.graph.has_edge(a, b):
                        insert_edge(idx, a, b)
                        break
            for v in idx.graph.vertices():
                assert hpspc_cycle_count(idx, idx.graph, v) == (
                    bfs_cycle_count(idx.graph, v)
                )


class TestInvertedIndex:
    def test_built_once_and_consistent(self):
        g = random_digraph(8, 16, seed=9)
        idx = HPSPCIndex.build(g)
        inv1 = idx.ensure_inverted()
        inv2 = idx.ensure_inverted()
        assert inv1[0] is inv2[0] and inv1[1] is inv2[1]
        inv_in, inv_out = inv1
        for v in g.vertices():
            for q, *_ in idx.label_in[v]:
                assert v in inv_in[q]
            for q, *_ in idx.label_out[v]:
                assert v in inv_out[q]
