"""HP-SPC: hub labeling for shortest-path counting (the paper's baseline).

This is a from-scratch implementation of the labeling scheme of Zhang & Yu,
"Hub Labeling for Shortest Path Counting" (SIGMOD 2020), as summarized in
Section II-B of the reproduced paper.  It assigns every vertex ``v`` an
in-label ``Lin(v)`` and out-label ``Lout(v)`` of entries
``(hub, distance, count)`` satisfying the *Exact Shortest Path Covering*
constraint: an entry ``(h, d, c)`` in ``Lin(w)`` means ``h`` is the
highest-ranked vertex on exactly ``c`` shortest ``h -> w`` paths of length
``d`` (all vertices of those paths, endpoints included, rank at or below
``h``).  Each shortest path between any pair is thereby counted exactly once
— under its unique highest-ranked vertex — so Equations (1)–(2) recover
``SPCnt`` by a sorted merge of ``Lout(s)`` and ``Lin(t)``.

Canonical vs non-canonical (Section II-B): an entry is *canonical* when its
count equals the full ``|SP(h, w)|``; the distance check during construction
(Algorithm 3 line 13) consults canonical entries only, which is sound because
the highest-ranked vertex over *all* shortest ``v -> w`` paths always owns
canonical entries on both sides (DESIGN.md §3.2).

Label entries are sorted by ``hub_pos`` (the hub's rank position; 0 =
highest) and held in a packed :class:`~repro.labeling.labelstore.LabelStore`
(the paper's 64-bit entry layout); queries are merge-joins over per-vertex
hub maps.  ``label_in`` / ``label_out`` expose the classic tuple-list view.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graph.digraph import DiGraph
from repro.labeling.labelstore import (
    UNREACHED,
    LabelStore,
    LabelTable,
    coerce_store,
    join_min_count,
)
from repro.labeling.ordering import degree_order, positions, validate_order
from repro.labeling.packing import (
    labels_from_bytes,
    labels_to_bytes,
    packed_size_bytes,
)
from repro.errors import SerializationError

__all__ = ["HPSPCIndex", "UNREACHED"]

Entry = tuple[int, int, int, bool]


class HPSPCIndex:
    """A built HP-SPC index over a directed graph.

    Use :meth:`build` to construct one.  The index answers
    :meth:`spcnt` (shortest-path count) and :meth:`distance` queries in
    time linear in the two label sizes.
    """

    __slots__ = (
        "graph", "order", "pos", "store_in", "store_out", "_inv_in",
        "_inv_out",
    )

    def __init__(
        self,
        graph: DiGraph,
        order: list[int],
        pos: list[int],
        label_in,
        label_out,
    ) -> None:
        self.graph = graph
        self.order = order
        self.pos = pos
        # Accepts the seed's list-of-tuple-lists or a LabelStore/-Table.
        self.store_in: LabelStore = coerce_store(label_in)
        self.store_out: LabelStore = coerce_store(label_out)
        # Inverted indexes, built lazily by ensure_inverted() for
        # repro.core.maintenance.
        self._inv_in: list[set[int]] | None = None
        self._inv_out: list[set[int]] | None = None

    @property
    def label_in(self) -> LabelTable:
        """``Lin`` as a list-compatible view over the packed store."""
        return LabelTable(self.store_in)

    @property
    def label_out(self) -> LabelTable:
        """``Lout`` as a list-compatible view over the packed store."""
        return LabelTable(self.store_out)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        order: Sequence[int] | None = None,
    ) -> HPSPCIndex:
        """Build the index with pruned counting BFS per hub.

        ``order`` defaults to the paper's degree-descending order; pass an
        explicit permutation (highest rank first) to pin tie-breaks.
        The hubs run in rank order
        (:func:`repro.build.build_label_tables`).
        """
        if order is None:
            order_list = degree_order(graph)
        else:
            order_list = list(order)
            validate_order(order_list, graph.n)
        pos = positions(order_list)
        # Deferred: repro.build imports repro.labeling, whose package
        # init imports this module.
        from repro.build import build_label_tables

        label_in, label_out = build_label_tables(graph, order_list, pos,
                                                 csc=False)
        return cls(graph, order_list, pos, label_in, label_out)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def spcnt(self, source: int, target: int) -> tuple[float, int]:
        """``SPCnt(source, target)`` per Equations (1)–(2).

        Returns ``(distance, count)``; ``(inf, 0)`` when unreachable and
        ``(0, 1)`` when ``source == target``.
        """
        so, si = self.store_out, self.store_in
        maps_o = so._maps or so.ensure_maps()
        maps_i = si._maps or si.ensure_maps()
        d, c = join_min_count(maps_o[source], maps_i[target])
        if d == UNREACHED:
            return (float("inf"), 0)
        return (d, c)

    def distance(self, source: int, target: int) -> float:
        """Shortest-path distance via the label cover."""
        return self.spcnt(source, target)[0]

    def ensure_inverted(self) -> tuple[list[set[int]], list[set[int]]]:
        """Build (once) and return ``(inv_in, inv_out)``, the inverted
        indexes ``hub_pos -> labeled vertices`` (as
        :meth:`repro.core.csc.CSCIndex.ensure_inverted`)."""
        if self._inv_in is None or self._inv_out is None:
            self._inv_in = self.store_in.inverted()
            self._inv_out = self.store_out.inverted()
        return self._inv_in, self._inv_out

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def total_entries(self) -> int:
        """Total number of label entries over all vertices."""
        return self.store_in.total_entries() + self.store_out.total_entries()

    def size_bytes(self) -> int:
        """Index size under the paper's 64-bit entry encoding."""
        return packed_size_bytes(self.total_entries())

    def average_label_size(self) -> float:
        """Mean entries per vertex per direction."""
        if self.graph.n == 0:
            return 0.0
        return self.total_entries() / (2 * self.graph.n)

    def labels_of(self, v: int) -> tuple[list[Entry], list[Entry]]:
        """``(Lin(v), Lout(v))`` as decoded tuple lists (hub positions,
        not ids)."""
        return self.store_in.entries(v), self.store_out.entries(v)

    def named_labels_of(
        self, v: int
    ) -> tuple[set[tuple[int, int, int]], set[tuple[int, int, int]]]:
        """``(Lin(v), Lout(v))`` with hub *vertex ids* — the Table II view."""
        lin = {
            (self.order[q], d, c) for (q, d, c, _) in self.store_in.entries(v)
        }
        lout = {
            (self.order[q], d, c)
            for (q, d, c, _) in self.store_out.entries(v)
        }
        return lin, lout

    def to_bytes(self) -> bytes:
        """Serialize the labels (graph not included)."""
        return b"".join(
            [
                labels_to_bytes(self.order, self.store_in.to_lists()),
                labels_to_bytes(self.order, self.store_out.to_lists()),
            ]
        )

    @classmethod
    def from_bytes(cls, blob: bytes, graph: DiGraph) -> HPSPCIndex:
        """Rebuild an index from :meth:`to_bytes` output plus its graph."""
        (order, label_in), consumed = labels_from_bytes_prefix(blob)
        order2, label_out = labels_from_bytes(blob[consumed:])
        if order2 != order:
            raise SerializationError("in/out label blobs disagree on order")
        if len(order) != graph.n:
            raise SerializationError(
                f"index was built for n={len(order)}, graph has n={graph.n}"
            )
        return cls(graph, order, positions(order), label_in, label_out)


def labels_from_bytes_prefix(blob: bytes):
    """Decode the first self-describing label table of a concatenated blob.

    Returns ``((order, tables), bytes_consumed)``.
    """
    import struct

    if len(blob) < 13 or blob[:4] != b"RPLB":
        raise SerializationError("not a repro label blob (bad magic)")
    _, n_order, n_tables = struct.unpack_from("<BII", blob, 4)
    offset = 13 + 4 * n_order
    try:
        for _ in range(n_tables):
            (entries,) = struct.unpack_from("<I", blob, offset)
            offset += 4 + 17 * entries
    except struct.error as exc:
        raise SerializationError(f"truncated label blob: {exc}") from exc
    return labels_from_bytes(blob[:offset]), offset


def merge_labels(
    out_labels: list[Entry], in_labels: list[Entry]
) -> tuple[int, int]:
    """Sorted merge implementing Equations (1)–(2).

    Returns ``(distance, count)`` with ``distance == UNREACHED`` when the
    labels share no hub.
    """
    best = UNREACHED
    total = 0
    i = j = 0
    len_a, len_b = len(out_labels), len(in_labels)
    while i < len_a and j < len_b:
        entry_a = out_labels[i]
        entry_b = in_labels[j]
        if entry_a[0] < entry_b[0]:
            i += 1
        elif entry_a[0] > entry_b[0]:
            j += 1
        else:
            d = entry_a[1] + entry_b[1]
            if d < best:
                best = d
                total = entry_a[2] * entry_b[2]
            elif d == best:
                total += entry_a[2] * entry_b[2]
            i += 1
            j += 1
    return best, total
