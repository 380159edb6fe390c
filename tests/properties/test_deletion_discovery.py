"""Deletion discovery reads the graph only, and matches its definition.

``deletion_affected_hubs(graph, a, b)`` decides which hubs DECCNT
repairs and, through the cost model, whether a batch takes the rebuild
fallback.  Here every edge of small random graphs is checked against
the Section V-C conditions computed from an all-pairs distance table,
and the couple-cycle term against the CSC index's own cycle-pair
distance (``2 * (sd(b, a) + 1) - 1`` in ``Gb``).
"""

from hypothesis import given, settings

from repro.core.csc import CSCIndex
from repro.core.maintenance import deletion_affected_hubs
from tests.conftest import digraphs

INF = float("inf")


def all_pairs(graph):
    """Floyd–Warshall hop distances: ``sd[x][y]``."""
    n = graph.n
    sd = [[0 if x == y else INF for y in range(n)] for x in range(n)]
    for a, b in graph.edges():
        sd[a][b] = 1
    for k in range(n):
        for x in range(n):
            for y in range(n):
                if sd[x][k] + sd[k][y] < sd[x][y]:
                    sd[x][y] = sd[x][k] + sd[k][y]
    return sd


@given(graph=digraphs(max_n=10))
@settings(max_examples=150, deadline=None)
def test_discovery_matches_the_distance_conditions(graph):
    sd = all_pairs(graph)
    index = CSCIndex.build(graph.copy())
    vertices = range(graph.n)
    for a, b in list(graph.edges()):
        aff_in, aff_out = deletion_affected_hubs(graph, a, b)
        assert aff_in == {
            v for v in vertices
            if sd[v][b] < INF and sd[v][a] + 1 == sd[v][b]
        }
        couple = sd[b][a] < INF and (
            index.cycle_gb_distance(a) == 2 * (sd[b][a] + 1) - 1
        )
        assert aff_out == {
            u for u in vertices
            if sd[a][u] < INF and sd[b][u] + 1 == sd[a][u]
        } | ({a} if couple else set())


@given(graph=digraphs(max_n=10))
@settings(max_examples=50, deadline=None)
def test_shared_bfs_caches_do_not_change_the_answer(graph):
    forward: dict = {}
    reverse: dict = {}
    for a, b in list(graph.edges()):
        assert deletion_affected_hubs(
            graph, a, b, forward, reverse
        ) == deletion_affected_hubs(graph, a, b)
