"""Unit tests for the dynamic directed graph."""

import pytest

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexError,
)
from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0)
        assert g.n == 0
        assert g.m == 0
        assert list(g.edges()) == []

    def test_isolated_vertices(self):
        g = DiGraph(5)
        assert g.n == 5
        assert all(g.degree(v) == 0 for v in g.vertices())

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(-1)

    def test_from_edges(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.m == 2
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_from_edges_rejects_duplicates(self):
        with pytest.raises(EdgeExistsError):
            DiGraph.from_edges(3, [(0, 1), (0, 1)])

    def test_from_edges_dedup_drops_duplicates_and_loops(self):
        g = DiGraph.from_edges_dedup(3, [(0, 1), (0, 1), (2, 2), (1, 2)])
        assert g.m == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 2)


class TestEdgeUpdates:
    def test_add_edge_updates_both_directions(self):
        g = DiGraph(3)
        g.add_edge(0, 2)
        assert list(g.out_neighbors(0)) == [2]
        assert list(g.in_neighbors(2)) == [0]
        assert g.m == 1

    def test_add_self_loop_rejected(self):
        g = DiGraph(2)
        with pytest.raises(SelfLoopError):
            g.add_edge(1, 1)

    def test_add_duplicate_rejected(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        with pytest.raises(EdgeExistsError):
            g.add_edge(0, 1)

    def test_add_edge_out_of_range(self):
        g = DiGraph(2)
        with pytest.raises(VertexError):
            g.add_edge(0, 5)
        with pytest.raises(VertexError):
            g.add_edge(-1, 0)

    def test_remove_edge(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.m == 1
        assert list(g.out_neighbors(0)) == []
        assert list(g.in_neighbors(1)) == []

    def test_remove_missing_edge_rejected(self):
        g = DiGraph(3)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 1)

    def test_remove_then_reinsert(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        g.remove_edge(0, 1)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1)
        assert g.m == 1

    def test_reverse_direction_independent(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 0)])
        g.remove_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 1)


class TestDegrees:
    def test_degrees(self):
        g = DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 0), (3, 0)])
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 2
        assert g.degree(0) == 4
        assert g.min_in_out_degree(0) == 2

    def test_min_in_out_degree_asymmetric(self):
        g = DiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert g.min_in_out_degree(0) == 0  # no in-edges
        assert g.out_degree(0) == 3

    def test_degree_out_of_range(self):
        g = DiGraph(1)
        with pytest.raises(VertexError):
            g.degree(1)

    def test_adjacency_matches_per_vertex_neighbors(self):
        g = DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 0), (3, 0)])
        g.remove_edge(0, 2)
        out, inn = g.adjacency(True), g.adjacency(False)
        assert len(out) == len(inn) == g.n
        for v in g.vertices():
            assert list(out[v]) == list(g.out_neighbors(v))
            assert list(inn[v]) == list(g.in_neighbors(v))


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert h.has_edge(0, 1)
        assert g == DiGraph.from_edges(3, [(0, 1)])

    def test_reverse(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert r.m == g.m
        assert not r.has_edge(0, 1)

    def test_reverse_twice_is_identity(self):
        g = DiGraph.from_edges(4, [(0, 1), (2, 3), (3, 0)])
        assert g.reverse().reverse() == g

    def test_add_vertex_rekeys_edges(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        new = g.add_vertex()
        assert new == 2
        assert g.n == 3
        assert g.has_edge(0, 1)
        g.add_edge(2, 0)
        assert g.has_edge(2, 0)


class TestDunder:
    def test_contains(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        assert (0, 1) in g
        assert (1, 0) not in g

    def test_equality(self):
        a = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        b = DiGraph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b
        b.remove_edge(0, 1)
        assert a != b

    def test_equality_needs_same_n(self):
        assert DiGraph(2) != DiGraph(3)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DiGraph(1))

    def test_repr(self):
        assert repr(DiGraph.from_edges(3, [(0, 1)])) == "DiGraph(n=3, m=1)"

    def test_eq_other_type(self):
        assert DiGraph(1).__eq__(42) is NotImplemented
