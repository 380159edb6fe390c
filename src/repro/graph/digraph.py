"""A compact dynamic directed graph.

The whole reproduction runs on :class:`DiGraph`: a simple directed graph
(no self loops, no parallel edges) over a fixed vertex range ``0..n-1`` with
adjacency lists for both directions, an O(1) edge-membership test, and
in-place edge insertion/deletion — the update model of the paper (Section II:
vertex updates are expressed as series of edge updates).

Internally the class keeps, per vertex, a Python ``list`` of out-neighbors and
in-neighbors (iteration-fast, which dominates BFS cost) plus a set of packed
``tail * n + head`` edge keys for membership tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.errors import (
    ConfigurationError,
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexError,
)

__all__ = ["DiGraph"]


class DiGraph:
    """Simple directed graph with dynamic edge updates.

    Parameters
    ----------
    n:
        Number of vertices; vertex ids are ``0..n-1``.

    Examples
    --------
    >>> g = DiGraph(3)
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> sorted(g.edges())
    [(0, 1), (1, 2)]
    >>> g.out_degree(0), g.in_degree(2)
    (1, 1)
    """

    __slots__ = ("_n", "_m", "_out", "_in", "_edge_keys")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ConfigurationError(f"vertex count must be non-negative, got {n}")
        self._n = n
        self._m = 0
        self._out: list[list[int]] = [[] for _ in range(n)]
        self._in: list[list[int]] = [[] for _ in range(n)]
        self._edge_keys: set[int] = set()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> DiGraph:
        """Build a graph from an edge iterable, rejecting duplicates."""
        g = cls(n)
        for tail, head in edges:
            g.add_edge(tail, head)
        return g

    @classmethod
    def from_edges_dedup(
        cls, n: int, edges: Iterable[tuple[int, int]]
    ) -> DiGraph:
        """Build a graph from an edge iterable, silently dropping duplicate
        edges and self loops (useful for noisy synthetic generators)."""
        g = cls(n)
        for tail, head in edges:
            if tail != head and not g.has_edge(tail, head):
                g.add_edge(tail, head)
        return g

    def copy(self) -> DiGraph:
        """Return an independent copy of this graph."""
        g = DiGraph.__new__(DiGraph)
        g._n = self._n
        g._m = self._m
        g._out = [list(adj) for adj in self._out]
        g._in = [list(adj) for adj in self._in]
        g._edge_keys = set(self._edge_keys)
        return g

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def vertices(self) -> range:
        """Iterable of all vertex ids."""
        return range(self._n)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexError(v, self._n)

    def has_edge(self, tail: int, head: int) -> bool:
        """Return whether the directed edge ``(tail, head)`` is present."""
        return tail * self._n + head in self._edge_keys

    def out_neighbors(self, v: int) -> Sequence[int]:
        """Successors of ``v``.  The returned sequence must not be mutated."""
        self._check_vertex(v)
        return self._out[v]

    def in_neighbors(self, v: int) -> Sequence[int]:
        """Predecessors of ``v``.  The returned sequence must not be mutated."""
        self._check_vertex(v)
        return self._in[v]

    def adjacency(self, out: bool) -> Sequence[Sequence[int]]:
        """Every vertex's successors (``out``) or predecessors, indexed by
        vertex, without a per-vertex range check — for kernels that visit
        many vertices.  Neither the outer nor the inner sequences may be
        mutated."""
        return self._out if out else self._in

    def out_degree(self, v: int) -> int:
        """Number of successors of ``v``."""
        self._check_vertex(v)
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        """Number of predecessors of ``v``."""
        self._check_vertex(v)
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Total degree: ``in_degree + out_degree`` (paper Section II)."""
        self._check_vertex(v)
        return len(self._out[v]) + len(self._in[v])

    def min_in_out_degree(self, v: int) -> int:
        """``min(|nbr_in(v)|, |nbr_out(v)|)`` — the paper's query-clustering
        key (Section VI-A)."""
        self._check_vertex(v)
        return min(len(self._out[v]), len(self._in[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all edges as ``(tail, head)`` pairs."""
        for tail in range(self._n):
            for head in self._out[tail]:
                yield (tail, head)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_edge(self, tail: int, head: int) -> None:
        """Insert edge ``(tail, head)``.

        Raises
        ------
        SelfLoopError
            If ``tail == head``.
        EdgeExistsError
            If the edge is already present.
        """
        self._check_vertex(tail)
        self._check_vertex(head)
        if tail == head:
            raise SelfLoopError(tail)
        key = tail * self._n + head
        if key in self._edge_keys:
            raise EdgeExistsError(tail, head)
        self._edge_keys.add(key)
        self._out[tail].append(head)
        self._in[head].append(tail)
        self._m += 1

    def remove_edge(self, tail: int, head: int) -> None:
        """Delete edge ``(tail, head)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        self._check_vertex(tail)
        self._check_vertex(head)
        key = tail * self._n + head
        if key not in self._edge_keys:
            raise EdgeNotFoundError(tail, head)
        self._edge_keys.discard(key)
        self._out[tail].remove(head)
        self._in[head].remove(tail)
        self._m -= 1

    def add_vertex(self) -> int:
        """Append a new isolated vertex and return its id.

        Edge keys are based on ``n``, so growing the graph re-keys the edge
        set; this is an O(m) operation intended for occasional use.
        """
        old_n = self._n
        self._n = old_n + 1
        self._out.append([])
        self._in.append([])
        self._edge_keys = {
            (key // old_n) * self._n + (key % old_n) for key in self._edge_keys
        }
        return old_n

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> DiGraph:
        """Return the reverse graph (all edge orientations flipped)."""
        g = DiGraph.__new__(DiGraph)
        g._n = self._n
        g._m = self._m
        g._out = [list(adj) for adj in self._in]
        g._in = [list(adj) for adj in self._out]
        g._edge_keys = {
            (key % self._n) * self._n + (key // self._n)
            for key in self._edge_keys
        }
        return g

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, edge: tuple[int, int]) -> bool:
        tail, head = edge
        return self.has_edge(tail, head)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._n == other._n and self._edge_keys == other._edge_keys

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("DiGraph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"DiGraph(n={self._n}, m={self._m})"
