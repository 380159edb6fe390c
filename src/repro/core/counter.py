"""High-level facade: a dynamic shortest-cycle counter.

:class:`ShortestCycleCounter` bundles a graph, its CSC index, and the
dynamic maintenance algorithms behind the interface an application would
actually use — the "system" view of the paper:

>>> from repro import DiGraph, ShortestCycleCounter
>>> g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
>>> counter = ShortestCycleCounter.build(g)
>>> counter.count(0)
CycleCount(count=1, length=3)
>>> counter.insert_edge(3, 0)
>>> counter.count(3)
CycleCount(count=1, length=4)
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.batch import (
    DEFAULT_REBUILD_THRESHOLD,
    BatchStats,
    apply_batch,
    rebuild_labels,
)
from repro.core.csc import CSCIndex
from repro.core.maintenance import (
    STRATEGIES,
    UpdateStats,
    delete_edge,
    insert_edge,
)
from repro.graph.digraph import DiGraph
from repro.graph.io import graph_from_bytes, graph_to_bytes
from repro.types import CycleCount, PathCount

from repro.errors import ConfigurationError, VertexError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.snapshot import Snapshot

__all__ = ["ShortestCycleCounter", "IndexStats"]


class IndexStats(dict):
    """Index statistics as a plain dict with attribute access."""

    __getattr__ = dict.__getitem__


class ShortestCycleCounter:
    """Dynamic ``SCCnt`` queries over a directed graph via the CSC index.

    Construct with :meth:`build`.  The counter owns its graph copy: edge
    updates must go through :meth:`insert_edge` / :meth:`delete_edge` so the
    index stays consistent with the graph.
    """

    def __init__(self, index: CSCIndex, strategy: str = "redundancy") -> None:
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        self._index = index
        self._strategy = strategy
        self._updates: list[UpdateStats | BatchStats] = []

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        order: Sequence[int] | None = None,
        strategy: str = "redundancy",
        copy_graph: bool = True,
    ) -> ShortestCycleCounter:
        """Build a counter over ``graph``.

        ``strategy`` selects the maintenance mode for subsequent insertions
        (``"redundancy"``, the paper's recommendation, or ``"minimality"``).
        The graph is copied by default so outside mutation cannot
        desynchronize the index.
        """
        g = graph.copy() if copy_graph else graph
        return cls(CSCIndex.build(g, order), strategy)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, v: int) -> CycleCount:
        """Number and length of the shortest cycles through ``v``."""
        return self._index.sccnt(v)

    def count_many(self, vertices: Sequence[int]) -> list[CycleCount]:
        """Batch form of :meth:`count` (each distinct id answered once,
        bit-identical to a scalar loop)."""
        return self._index.sccnt_many(vertices)

    def sccnt(self, v: int) -> CycleCount:
        """:class:`~repro.service.QueryAPI` spelling of :meth:`count`
        (the paper's name for the query); unlike the historical
        :meth:`count`, an out-of-range vertex raises the taxonomy's
        :class:`~repro.errors.VertexError` — uniform across every
        protocol backend."""
        n = self.graph.n
        if not 0 <= v < n:
            raise VertexError(v, n)
        return self._index.sccnt(v)

    def sccnt_many(self, vertices: Sequence[int]) -> list[CycleCount]:
        """:class:`~repro.service.QueryAPI` spelling of
        :meth:`count_many`."""
        return self._index.sccnt_many(vertices)

    def spcnt(self, x: int, y: int) -> PathCount:
        """Count and length of the shortest ``x -> y`` paths (answered
        from the cycle labels; see :meth:`CSCIndex.spcnt`)."""
        return self._index.spcnt(x, y)

    def spcnt_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[PathCount]:
        """Batch form of :meth:`spcnt` (same contract as
        :meth:`count_many`)."""
        return self._index.spcnt_many(pairs)

    def snapshot(self, epoch: int = 0, ops_applied: int = 0) -> Snapshot:
        """An immutable, epoch-stamped view of the current state.

        The returned :class:`repro.service.Snapshot` answers
        :meth:`count` / :meth:`spcnt` / :meth:`top_suspicious` from the
        labels as they are *now*; later updates through this counter
        copy-on-write around it.  Take snapshots only from the thread
        applying updates; read them from anywhere (this is the
        publication primitive of :class:`repro.service.ServeEngine`).
        """
        from repro.service.snapshot import Snapshot

        return Snapshot.capture(self, epoch=epoch, ops_applied=ops_applied)

    def top_suspicious(self, k: int = 10) -> list[tuple[int, CycleCount]]:
        """The ``k`` vertices with the most shortest cycles (ties broken by
        shorter cycle length, then id) — the paper's fraud pre-screening
        criterion (Application 1, Figure 13)."""
        scored = [(v, self._index.sccnt(v)) for v in self.graph.vertices()]
        scored.sort(key=lambda item: (-item[1].count, item[1].length, item[0]))
        return scored[:k]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, tail: int, head: int) -> UpdateStats:
        """Insert an edge and incrementally maintain the index (INCCNT)."""
        stats = insert_edge(self._index, tail, head, self._strategy)
        self._updates.append(stats)
        return stats

    def delete_edge(self, tail: int, head: int) -> UpdateStats:
        """Delete an edge and repair the index (DECCNT)."""
        stats = delete_edge(self._index, tail, head)
        self._updates.append(stats)
        return stats

    def apply_batch(
        self,
        ops: Iterable[tuple[str, int, int]],
        rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
        on_invalid: str = "raise",
    ) -> BatchStats:
        """Apply a mixed batch of ``("insert"|"delete", tail, head)`` ops
        with one repair pass per distinct affected hub (BATCH-INCCNT/
        DECCNT), falling back to a full rebuild when more than
        ``rebuild_threshold`` of all hubs are affected.

        Infeasible ops — inserting a present edge or deleting an absent
        one, judged against the edge state at that point *within* the
        batch — raise before anything mutates (``on_invalid="raise"``,
        the default) or are skipped and reported in the returned stats
        (``on_invalid="skip"``).
        """
        stats = apply_batch(
            self._index,
            ops,
            self._strategy,
            rebuild_threshold=rebuild_threshold,
            on_invalid=on_invalid,
        )
        self._updates.append(stats)
        return stats

    def insert_edges(
        self,
        edges: Sequence[tuple[int, int]],
        on_invalid: str = "raise",
    ) -> BatchStats:
        """Insert a batch of edges through :meth:`apply_batch` (one repair
        pass per distinct affected hub instead of one per edge)."""
        return self.apply_batch(
            [("insert", tail, head) for tail, head in edges],
            on_invalid=on_invalid,
        )

    def delete_edges(
        self,
        edges: Sequence[tuple[int, int]],
        on_invalid: str = "raise",
    ) -> BatchStats:
        """Delete a batch of edges through :meth:`apply_batch`."""
        return self.apply_batch(
            [("delete", tail, head) for tail, head in edges],
            on_invalid=on_invalid,
        )

    def detach_vertex(self, v: int) -> BatchStats:
        """Remove every edge incident to ``v`` as one batch.

        The paper models vertex deletion as a series of edge deletions
        (Section II); the vertex itself stays as an isolated id so other
        ids remain stable.
        """
        out_edges = [(v, u) for u in list(self.graph.out_neighbors(v))]
        in_edges = [(u, v) for u in list(self.graph.in_neighbors(v))]
        return self.delete_edges(out_edges + in_edges)

    def add_vertex(self) -> int:
        """Append a new isolated vertex and extend the index for it.

        An isolated vertex has empty cycle labels except its own self
        entry, so only bookkeeping grows; connect it with
        :meth:`insert_edge` afterwards (the paper's vertex-insertion
        model).
        """
        index = self._index
        v = index.graph.add_vertex()
        index.order.append(v)
        index.pos.append(len(index.order) - 1)
        index.store_in.add_vertex([(index.pos[v], 0, 1, True)])
        index.store_out.add_vertex()
        if index._inv_in is not None:
            index._inv_in.append({v})
            index._inv_out.append(set())
        return v

    def rebuild(self) -> None:
        """Reconstruct the index from scratch (the paper's strawman for
        dynamic graphs; exposed for the Figure 11 comparison)."""
        self._index = CSCIndex.build(self.graph, self._index.order)
        self._updates.clear()

    def rebuild_in_place(self, stats: BatchStats) -> None:
        """Run the batch rebuild fallback on its own: rebuild the labels
        from the current graph under the current order and log ``stats``
        as one rebuilt batch.

        For a caller that has already applied edge changes to
        :attr:`graph` — crash recovery, folding rebuild-bound WAL records
        into one build.  Unlike :meth:`rebuild`, the update log is kept.
        """
        rebuild_labels(self._index, stats)
        self._updates.append(stats)

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The underlying graph (mutate only via this counter)."""
        return self._index.graph

    @property
    def index(self) -> CSCIndex:
        """The underlying CSC index."""
        return self._index

    @property
    def strategy(self) -> str:
        """Maintenance strategy for insertions."""
        return self._strategy

    @property
    def epoch(self) -> int:
        """Updates applied through this counter so far — the live
        counter's reading of the :class:`~repro.service.QueryAPI` state
        version (a published :class:`~repro.service.Snapshot` reports
        its publication epoch instead).  Resets with :meth:`rebuild`,
        which also clears :attr:`update_log`."""
        return len(self._updates)

    @property
    def update_log(self) -> list[UpdateStats | BatchStats]:
        """Stats of every update applied through this counter
        (:class:`UpdateStats` for single edges, :class:`BatchStats` for
        batches)."""
        return list(self._updates)

    def stats(self) -> IndexStats:
        """Index and graph statistics, including aggregated update and
        batch counters."""
        edges_inserted = edges_deleted = batches_applied = 0
        batch_rebuilds = 0
        for record in self._updates:
            if isinstance(record, BatchStats):
                batches_applied += 1
                edges_inserted += record.inserted
                edges_deleted += record.deleted
                batch_rebuilds += record.rebuilt
            elif record.operation == "insert":
                edges_inserted += 1
            elif record.operation == "delete":
                edges_deleted += 1
        return IndexStats(
            n=self.graph.n,
            m=self.graph.m,
            label_entries=self._index.total_entries(),
            size_bytes=self._index.size_bytes(),
            average_label_size=self._index.average_label_size(),
            strategy=self._strategy,
            updates_applied=len(self._updates),
            edges_inserted=edges_inserted,
            edges_deleted=edges_deleted,
            batches_applied=batches_applied,
            batch_rebuilds=batch_rebuilds,
        )

    def to_bytes(self) -> bytes:
        """Graph + index as one self-contained blob (an 8-byte graph
        length, the graph blob, then the RPCI index blob).  This is the
        payload format of full checkpoints in :mod:`repro.persist` and
        of :meth:`save` files."""
        graph_blob = graph_to_bytes(self.graph)
        index_blob = self._index.to_bytes()
        header = len(graph_blob).to_bytes(8, "little")
        return header + graph_blob + index_blob

    @classmethod
    def from_bytes(
        cls, blob: bytes, strategy: str = "redundancy"
    ) -> ShortestCycleCounter:
        """Inverse of :meth:`to_bytes`."""
        graph_len = int.from_bytes(blob[:8], "little")
        graph = graph_from_bytes(blob[8 : 8 + graph_len])
        index = CSCIndex.from_bytes(blob[8 + graph_len :], graph)
        return cls(index, strategy)

    def save(self, path: str | Path) -> None:
        """Persist graph + index to one file."""
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(
        cls, path: str | Path, strategy: str = "redundancy"
    ) -> ShortestCycleCounter:
        """Inverse of :meth:`save`."""
        return cls.from_bytes(Path(path).read_bytes(), strategy)
