"""BFS primitives and reference shortest-path-counting routines.

These are the unlabeled building blocks: plain BFS distances (forward and
reverse) used by workloads and the decremental update, plus a reference
shortest-path counter used as a test oracle and by the naive baselines.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.errors import VertexError
from repro.graph.digraph import DiGraph

__all__ = [
    "INF",
    "bfs_distances",
    "bfs_distance_between",
    "count_shortest_paths",
    "count_shortest_paths_all",
    "eccentricity_sample",
]

#: Distance value used for unreachable vertices.
INF = float("inf")


def bfs_distances(
    graph: DiGraph, source: int, reverse: bool = False
) -> list[float]:
    """Hop distances from ``source`` to every vertex (or *to* ``source`` from
    every vertex when ``reverse`` is true).

    Returns a dense list indexed by vertex id with :data:`INF` itself
    (the object, so ``is INF`` tests it) for unreachable vertices.

    The BFS runs level by level over :meth:`DiGraph.adjacency
    <repro.graph.digraph.DiGraph.adjacency>`, the unchecked neighbour
    lists: with unit weights a vertex's first visit is final, so the
    one test per scanned neighbour is whether it is still unvisited.
    Deletion discovery (:func:`repro.core.maintenance.deletion_affected_hubs`)
    runs four of these per deleted edge.
    """
    if not 0 <= source < graph.n:
        raise VertexError(source, graph.n)
    adjacency = graph.adjacency(not reverse)
    dist: list[float] = [INF] * graph.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for v in frontier:
            for u in adjacency[v]:
                if dist[u] is INF:
                    dist[u] = d
                    reached.append(u)
        frontier = reached
    return dist


def bfs_distance_between(graph: DiGraph, source: int, target: int) -> float:
    """Hop distance from ``source`` to ``target`` with early exit."""
    if source == target:
        return 0
    dist: dict[int, int] = {source: 0}
    queue: deque[int] = deque((source,))
    while queue:
        v = queue.popleft()
        d_next = dist[v] + 1
        for u in graph.out_neighbors(v):
            if u not in dist:
                if u == target:
                    return d_next
                dist[u] = d_next
                queue.append(u)
    return INF


def count_shortest_paths(
    graph: DiGraph, source: int, target: int
) -> tuple[float, int]:
    """Reference shortest-path counting via BFS dynamic programming.

    Returns ``(distance, count)``; ``(INF, 0)`` when ``target`` is
    unreachable, ``(0, 1)`` when ``source == target``.  This is the oracle
    the labeled indexes are validated against.
    """
    if source == target:
        return (0, 1)
    dist, cnt = _counting_bfs(graph, source)
    if dist[target] is INF:
        return (INF, 0)
    return (dist[target], cnt[target])


def count_shortest_paths_all(
    graph: DiGraph, source: int
) -> tuple[list[float], list[int]]:
    """Distances and shortest-path counts from ``source`` to all vertices."""
    return _counting_bfs(graph, source)


def _counting_bfs(graph: DiGraph, source: int) -> tuple[list[float], list[int]]:
    dist: list[float] = [INF] * graph.n
    cnt: list[int] = [0] * graph.n
    dist[source] = 0
    cnt[source] = 1
    queue: deque[int] = deque((source,))
    while queue:
        v = queue.popleft()
        d_next = dist[v] + 1
        c_v = cnt[v]
        for u in graph.out_neighbors(v):
            if dist[u] is INF or dist[u] > d_next:
                dist[u] = d_next
                cnt[u] = c_v
                queue.append(u)
            elif dist[u] == d_next:
                cnt[u] += c_v
    return dist, cnt


def eccentricity_sample(
    graph: DiGraph, sources: Sequence[int]
) -> list[float]:
    """Finite eccentricities of the sample ``sources`` (diameter probes for
    dataset statistics)."""
    result: list[float] = []
    for s in sources:
        dist = bfs_distances(graph, s)
        finite = [d for d in dist if d is not INF]
        result.append(max(finite) if finite else 0)
    return result
