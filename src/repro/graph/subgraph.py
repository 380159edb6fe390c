"""Subgraph extraction helpers.

Used by the Figure 13 case-study view ("a subgraph centering at vertex
169"): extract the ego network of a vertex, or the union of its shortest
cycles, as a standalone :class:`~repro.graph.digraph.DiGraph` with an id
mapping back to the original graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.graph.digraph import DiGraph

from repro.errors import ConfigurationError

__all__ = ["Subgraph", "induced_subgraph", "ego_subgraph", "cycle_subgraph"]


@dataclass(frozen=True)
class Subgraph:
    """An induced subgraph plus the mapping to original vertex ids."""

    graph: DiGraph
    #: position ``i`` holds the original id of the subgraph's vertex ``i``
    originals: list[int]

    def original_of(self, v: int) -> int:
        """Original-graph id of subgraph vertex ``v``."""
        return self.originals[v]

    def local_of(self, original: int) -> int:
        """Subgraph id of an original vertex (raises KeyError if absent)."""
        try:
            return self.originals.index(original)
        except ValueError:
            raise KeyError(
                f"vertex {original} not in subgraph"
            ) from None

    def edges_as_originals(self) -> list[tuple[int, int]]:
        """Edges expressed in original-graph ids."""
        return [
            (self.originals[t], self.originals[h])
            for t, h in self.graph.edges()
        ]


def induced_subgraph(graph: DiGraph, vertices: list[int]) -> Subgraph:
    """The subgraph induced by ``vertices`` (order preserved, dedup)."""
    seen: dict[int, int] = {}
    originals: list[int] = []
    for v in vertices:
        if v not in seen:
            seen[v] = len(originals)
            originals.append(v)
    sub = DiGraph(len(originals))
    for v in originals:
        for u in graph.out_neighbors(v):
            if u in seen:
                sub.add_edge(seen[v], seen[u])
    return Subgraph(sub, originals)


def ego_subgraph(graph: DiGraph, center: int, radius: int = 1) -> Subgraph:
    """Vertices within ``radius`` hops of ``center`` in *either* direction,
    plus all edges among them."""
    if radius < 0:
        raise ConfigurationError("radius must be non-negative")
    level = {center: 0}
    queue: deque[int] = deque((center,))
    while queue:
        v = queue.popleft()
        if level[v] == radius:
            continue
        for u in list(graph.out_neighbors(v)) + list(graph.in_neighbors(v)):
            if u not in level:
                level[u] = level[v] + 1
                queue.append(u)
    ordered = sorted(level, key=lambda v: (level[v], v))
    return induced_subgraph(graph, ordered)


def cycle_subgraph(graph: DiGraph, center: int) -> Subgraph:
    """The union of all shortest cycles through ``center`` — the paper's
    Figure 13 object ("all the shortest cycles through vertex 169 are
    listed").  Empty subgraph when no cycle exists.

    Uses exhaustive enumeration; intended for presentation-sized
    neighborhoods, not bulk queries.
    """
    # Local: the graph layer sits below the baselines, whose package
    # init imports the index layer.
    from repro.baselines.naive import enumerate_shortest_cycles

    cycles = enumerate_shortest_cycles(graph, center)
    members: list[int] = [center]
    for cycle in cycles:
        for v in cycle[:-1]:
            if v not in members:
                members.append(v)
    if not cycles:
        return induced_subgraph(graph, [center])
    sub = induced_subgraph(graph, members)
    # Keep only the cycle edges, not chords among members.
    cycle_edges = {
        (t, h) for cycle in cycles for t, h in zip(cycle, cycle[1:])
    }
    filtered = DiGraph(sub.graph.n)
    for t, h in sub.graph.edges():
        if (sub.originals[t], sub.originals[h]) in cycle_edges:
            filtered.add_edge(t, h)
    return Subgraph(filtered, sub.originals)
