"""Tests for BFS primitives and the shortest-path-counting oracle."""

from collections import deque

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VertexError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import (
    INF,
    bfs_distance_between,
    bfs_distances,
    count_shortest_paths,
    count_shortest_paths_all,
    eccentricity_sample,
)
from tests.conftest import digraphs, random_digraph


def to_networkx(g: DiGraph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(g.vertices())
    nxg.add_edges_from(g.edges())
    return nxg


class TestBfsDistances:
    def test_line_graph(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_distances(g, 0) == [0, 1, 2, 3]

    def test_unreachable_is_inf(self):
        g = DiGraph.from_edges(3, [(0, 1)])
        dist = bfs_distances(g, 0)
        assert dist[2] is INF

    def test_reverse_distances(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        dist = bfs_distances(g, 2, reverse=True)
        assert dist == [2, 1, 0]

    def test_source_only(self):
        g = DiGraph(3)
        dist = bfs_distances(g, 1)
        assert dist[1] == 0
        assert dist[0] is INF and dist[2] is INF

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=9))
    def test_matches_networkx(self, g):
        nxg = to_networkx(g)
        expected = nx.single_source_shortest_path_length(nxg, 0) if g.n else {}
        dist = bfs_distances(g, 0) if g.n else []
        for v in g.vertices():
            if v in expected:
                assert dist[v] == expected[v]
            else:
                assert dist[v] is INF


def reference_bfs_distances(graph, source, reverse=False):
    """The queue-based ``bfs_distances`` as it stood before the level
    loop: vertex-checked neighbour calls and a relaxation test."""
    dist = [INF] * graph.n
    dist[source] = 0
    queue = deque((source,))
    neighbors = graph.in_neighbors if reverse else graph.out_neighbors
    while queue:
        v = queue.popleft()
        d_next = dist[v] + 1
        for u in neighbors(v):
            if dist[u] is INF or dist[u] > d_next:
                dist[u] = d_next
                queue.append(u)
    return dist


@st.composite
def graphs_with_source(draw):
    """A digraph padded with isolated vertices, so some are unreachable
    both ways, plus a source vertex."""
    g = draw(digraphs(max_n=12))
    isolated = draw(st.integers(min_value=0, max_value=3))
    g = DiGraph.from_edges(g.n + isolated, g.edges())
    return g, draw(st.integers(min_value=0, max_value=g.n - 1))


class TestBfsDistancesReference:
    @settings(max_examples=100, deadline=None)
    @given(case=graphs_with_source(), reverse=st.booleans())
    def test_matches_reference_loop(self, case, reverse):
        g, source = case
        want = reference_bfs_distances(g, source, reverse)
        got = bfs_distances(g, source, reverse=reverse)
        assert got == want
        for d_got, d_want in zip(got, want):
            # deletion discovery tests unreachability with `is not INF`
            assert (d_got is INF) == (d_want is INF)

    def test_unreachable_is_the_inf_object_both_ways(self):
        g = DiGraph.from_edges(5, [(0, 1), (1, 2), (3, 1)])
        assert bfs_distances(g, 0) == [0, 1, 2, INF, INF]
        assert [d is INF for d in bfs_distances(g, 0)] == [
            False, False, False, True, True]
        back = bfs_distances(g, 2, reverse=True)
        assert back == [2, 1, 0, 2, INF]
        assert back[4] is INF

    @pytest.mark.parametrize("source", [-1, 3])
    def test_source_out_of_range(self, source):
        with pytest.raises(VertexError):
            bfs_distances(DiGraph(3), source)


class TestBfsBetween:
    def test_self_distance(self):
        g = DiGraph(2)
        assert bfs_distance_between(g, 0, 0) == 0

    def test_direct_edge(self):
        g = DiGraph.from_edges(2, [(0, 1)])
        assert bfs_distance_between(g, 0, 1) == 1

    def test_unreachable(self):
        g = DiGraph(2)
        assert bfs_distance_between(g, 0, 1) is INF

    def test_matches_full_bfs(self):
        g = random_digraph(12, 25, seed=3)
        full = bfs_distances(g, 0)
        for t in g.vertices():
            assert bfs_distance_between(g, 0, t) == full[t]


class TestCountShortestPaths:
    def test_identity(self):
        g = DiGraph(1)
        assert count_shortest_paths(g, 0, 0) == (0, 1)

    def test_two_parallel_paths(self):
        g = DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert count_shortest_paths(g, 0, 3) == (2, 2)

    def test_shorter_path_wins(self):
        g = DiGraph.from_edges(4, [(0, 1), (1, 3), (0, 3), (0, 2), (2, 3)])
        assert count_shortest_paths(g, 0, 3) == (1, 1)

    def test_unreachable(self):
        g = DiGraph.from_edges(3, [(1, 2)])
        assert count_shortest_paths(g, 0, 2) == (INF, 0)

    def test_counts_multiply_along_stages(self):
        # 2 choices then 3 choices: 6 shortest paths of length... 3
        edges = []
        # stage A: 0 -> {1,2}; stage B: {1,2} -> {3,4,5}? that's 2*...
        for a in (1, 2):
            edges.append((0, a))
            for b in (3, 4, 5):
                edges.append((a, b))
        for b in (3, 4, 5):
            edges.append((b, 6))
        g = DiGraph.from_edges(7, edges)
        assert count_shortest_paths(g, 0, 6) == (3, 6)

    @settings(max_examples=60, deadline=None)
    @given(digraphs(max_n=8))
    def test_matches_networkx_path_enumeration(self, g):
        nxg = to_networkx(g)
        source, target = 0, g.n - 1
        try:
            paths = list(nx.all_shortest_paths(nxg, source, target))
            expected = (len(paths[0]) - 1, len(paths))
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            expected = (INF, 0)
        assert count_shortest_paths(g, source, target) == expected

    def test_all_variant_consistent(self):
        g = random_digraph(10, 20, seed=5)
        dist, cnt = count_shortest_paths_all(g, 0)
        for t in g.vertices():
            assert count_shortest_paths(g, 0, t) == (dist[t], cnt[t])


class TestEccentricity:
    def test_line(self):
        g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert eccentricity_sample(g, [0]) == [2]

    def test_isolated(self):
        g = DiGraph(2)
        assert eccentricity_sample(g, [0]) == [0]
