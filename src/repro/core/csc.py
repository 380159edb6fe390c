"""CSC — bipartite hub labeling for shortest cycle counting (Section IV).

The index of the paper: build the bipartite conversion ``Gb`` of the input
graph, hub-label it under the shortest-path-counting cover constraint, and
answer ``SCCnt(v)`` as ``SPCnt_Gb(v_out, v_in)`` with cycle length
``(d + 1) / 2``.

Representation
--------------
``Gb`` is never materialized.  Its structure makes couple labels redundant
(``v_in``'s single out-edge / ``v_out``'s single in-edge is the couple edge),
so per original vertex ``v`` we store only the two lists the cycle query
reads — Section IV-E's *index reduction*:

* ``label_in[v]``  = ``Lin(v_in)``  — entries ``(hub_pos, dist, count, canonical)``;
* ``label_out[v]`` = ``Lout(v_out)`` — same format; the entry whose hub is
  ``v`` itself is the *cycle entry* ``(v_in, d, c) ∈ Lout(v_out)``
  (cf. Table III's ``(v7i, 11, 1)``).

Hubs are always ``Vin`` vertices: on any ``x_out -> x_in`` path every
``v_out`` is preceded by its higher-ranked couple ``v_in`` (the start
``x_out``'s couple is the path's endpoint), so the highest-ranked vertex is
in ``Vin`` — this is why couple-vertex skipping loses nothing for cycle
queries.  A hub is identified by its original vertex's rank position
``pos``; the ``Gb`` rank order is ``v1_in, v1_out, v2_in, v2_out, ...``
following the original order, which keeps couples consecutive (Section IV-B).

Distances are stored in ``Gb`` units: ``sd(h_in, w_in) = 2 * sd_G0(h, w)``,
``sd(w_out, h_in) = 2 * sd_G0(w, h) - 1``, so Table III's values (4, 7, 11)
appear verbatim.

Construction (Algorithms 3–4) runs one forward and one backward pruned
counting BFS per hub, processing only one side of each couple: a forward BFS
dequeues ``w_in`` vertices and hops ``w_in -> w_out -> u_in`` at distance
``+2``; a backward BFS dequeues ``w_out`` vertices.  The backward rank test
``h_in ≺ u_out  ⇔  pos(h) <= pos(u)`` admits ``u = h`` — the dequeue of the
hub's own couple is the couple-cycle case, which records the cycle entry and
prunes (rule (4) of Section IV-C).  The BFS is
:func:`repro.build.hub_bfs`, shared with HP-SPC, and the hubs run one
after another in rank order (:func:`repro.build.build_label_tables`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from operator import index as _as_int

from repro.errors import BatchVertexError, SerializationError
from repro.graph.digraph import DiGraph
from repro.labeling.hpspc import UNREACHED
from repro.labeling.labelstore import (
    LabelStore,
    LabelTable,
    coerce_store,
    join_min_dist,
)
from repro.labeling.ordering import degree_order, positions, validate_order
from repro.types import NO_CYCLE, NO_PATH, CycleCount, PathCount

__all__ = ["CSCIndex", "checked_pairs", "checked_vertices"]

_INDEX_MAGIC = b"RPCI"
_INDEX_VERSION = 1


def checked_vertices(vertices: Sequence[int], n: int) -> list[int]:
    """A query batch's ids as ints (``operator.index`` coercion), or one
    :class:`~repro.errors.BatchVertexError` naming every out-of-range
    ``(position, id)``."""
    vs = [_as_int(v) for v in vertices]
    bad = [(i, v) for i, v in enumerate(vs) if not 0 <= v < n]
    if bad:
        raise BatchVertexError(bad, n)
    return vs


def checked_pairs(
    pairs: Sequence[tuple[int, int]], n: int
) -> list[tuple[int, int]]:
    """:func:`checked_vertices` for a batch of ``(x, y)`` pairs."""
    ps = [(_as_int(x), _as_int(y)) for x, y in pairs]
    bad = [(i, v) for i, xy in enumerate(ps) for v in xy if not 0 <= v < n]
    if bad:
        raise BatchVertexError(bad, n)
    return ps


class CSCIndex:
    """The CSC shortest-cycle-counting index over a dynamic directed graph.

    Build with :meth:`build`; query with :meth:`sccnt`; maintain under edge
    updates through :mod:`repro.core.maintenance` (or the
    :class:`~repro.core.counter.ShortestCycleCounter` facade).
    """

    __slots__ = (
        "graph",
        "order",
        "pos",
        "store_in",
        "store_out",
        "_qmaps_in",
        "_qmaps_out",
        "_inv_in",
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
        # Labels live in packed flat-array stores; the seed's
        # list-of-tuple-lists is accepted and packed on the way in.
        self.store_in: LabelStore = coerce_store(label_in)
        self.store_out: LabelStore = coerce_store(label_out)
        # Direct aliases of the stores' per-vertex hub maps: the query
        # kernels are called millions of times, so they skip the
        # store-attribute hops.  The alias stays valid because stores
        # mutate the map list in place; anything that swaps a store out
        # must call _bind_query_maps() again.
        self._qmaps_in = self.store_in.ensure_maps()
        self._qmaps_out = self.store_out.ensure_maps()
        # Inverted indexes (hub_pos -> set of labeled vertices); built lazily
        # by ensure_inverted() since only dynamic maintenance needs them.
        self._inv_in: list[set[int]] | None = None
        self._inv_out: list[set[int]] | None = None

    def _bind_query_maps(self) -> None:
        self._qmaps_in = self.store_in.ensure_maps()
        self._qmaps_out = self.store_out.ensure_maps()

    @property
    def label_in(self) -> LabelTable:
        """``Lin`` as a list-compatible view over the packed store."""
        return LabelTable(self.store_in)

    @label_in.setter
    def label_in(self, labels) -> None:
        self.store_in = coerce_store(labels)
        self._bind_query_maps()

    @property
    def label_out(self) -> LabelTable:
        """``Lout`` as a list-compatible view over the packed store."""
        return LabelTable(self.store_out)

    @label_out.setter
    def label_out(self, labels) -> None:
        self.store_out = coerce_store(labels)
        self._bind_query_maps()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        order: Sequence[int] | None = None,
    ) -> CSCIndex:
        """Build the CSC index (Algorithm 3 with couple-vertex skipping).

        ``order`` is an original-graph vertex permutation (highest rank
        first); it defaults to the paper's degree-descending order and is
        lifted to ``Gb`` with couples kept consecutive.
        """
        if order is None:
            order_list = degree_order(graph)
        else:
            order_list = list(order)
            validate_order(order_list, graph.n)
        pos = positions(order_list)
        # Deferred: repro.build imports repro.labeling, whose import
        # chain reaches this module.
        from repro.build import build_label_tables

        store_in, store_out = build_label_tables(graph, order_list, pos,
                                                 csc=True)
        return cls(graph, order_list, pos, store_in, store_out)

    def copy(self, copy_graph: bool = True) -> CSCIndex:
        """Independent copy of the index (and, by default, its graph) —
        used by experiments that replay the same update batch under both
        maintenance strategies."""
        return CSCIndex(
            self.graph.copy() if copy_graph else self.graph,
            list(self.order),
            list(self.pos),
            self.store_in.copy(),
            self.store_out.copy(),
        )

    def snapshot(self) -> CSCIndex:
        """A frozen, query-only view of the current labels.

        Built from :meth:`LabelStore.snapshot` on both sides — O(n)
        pointer copies, with label data shared copy-on-write — so
        publishing one per update batch is cheap.  The snapshot *shares
        the live graph object*: label queries (:meth:`sccnt`,
        :meth:`spcnt`, :meth:`cycle_gb_distance`) never read adjacency
        and stay consistent with the captured labels, but graph-reading
        helpers (:meth:`validate`, maintenance) must not be used on a
        snapshot whose origin has since advanced.  Use
        :class:`repro.service.Snapshot` for the bounds-checked serving
        facade.

        Must be called from the thread that mutates the index (the
        single writer); the returned index may then be read freely from
        any number of threads.
        """
        return CSCIndex(
            self.graph,
            list(self.order),
            list(self.pos),
            self.store_in.snapshot(),
            self.store_out.snapshot(),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sccnt(self, v: int) -> CycleCount:
        """``SCCnt(v)``: count and length of the shortest cycles through
        ``v`` (Section IV-D).

        Evaluates ``SPCnt_Gb(v_out, v_in)`` by a merge-join of
        ``Lout(v_out)`` and ``Lin(v_in)`` over the packed store's hub maps
        (iterate the smaller side, probe the larger at C dict speed); the
        ``Gb`` distance ``d`` maps to cycle length ``(d + 1) / 2``.
        """
        # :func:`join_min_count` inlined: the smaller map iterates in
        # ascending distance, so the scan stops once its distance passes
        # the best sum found (probe-side distances are >= 0).
        ma = self._qmaps_out[v]
        mb = self._qmaps_in[v]
        if len(ma) > len(mb):
            ma, mb = mb, ma
        best = UNREACHED
        total = 0
        get = mb.get
        for h, (d_a, c_a, _f) in ma.items():
            if d_a > best:
                break
            tb = get(h)
            if tb is not None:
                d = d_a + tb[0]
                if d < best:
                    best = d
                    total = c_a * tb[1]
                elif d == best:
                    total += c_a * tb[1]
        if total == 0 or best == UNREACHED:
            return NO_CYCLE
        # tuple.__new__ skips NamedTuple's python-level __new__ (~280ns
        # per call on the benchmark machine); the result is a normal
        # CycleCount in every observable way.
        return tuple.__new__(CycleCount, (total, (best + 1) // 2))

    def spcnt(self, x: int, y: int) -> PathCount:
        """``SPCnt(x, y)``: count and length of the shortest ``x -> y``
        paths in the original graph, answered from the cycle labels.

        Every ``x_in -> y_in`` path in ``Gb`` starts with the couple edge
        (``x_in``'s only out-edge), so ``SPCnt_Gb(x_in, y_in)`` equals
        ``SPCnt_Gb(x_out, y_in)`` and its distance is ``2 * sd_G0(x, y)``;
        and on an ``x_in -> y_in`` path the highest-ranked vertex is
        always a ``Vin`` vertex, so the couple-skipped ``Vin``-hub cover
        answers the pair exactly.  The join below probes ``Lin(y_in)``
        against the couple-shifted ``Lout(x_out)`` — the derived
        ``Lout(x_in)`` of :meth:`derived_out_map`, without materializing
        it.  ``spcnt(x, x)`` is the empty path ``(count=1, dist=0)``;
        cycle queries stay :meth:`sccnt`.
        """
        if x == y:
            return PathCount(1, 0)
        my = self._qmaps_in[y]
        mx = self._qmaps_out[x]
        px = self.pos[x]
        best = UNREACHED
        total = 0
        pair = my.get(px)
        if pair is not None:
            # Hub x_in itself, at derived distance 0.
            best = pair[0]
            total = pair[1]
        get = mx.get
        for q, dc in my.items():
            if q == px:
                continue
            other = get(q)
            if other is not None:
                d = other[0] + 1 + dc[0]
                if d < best:
                    best = d
                    total = other[1] * dc[1]
                elif d == best:
                    total += other[1] * dc[1]
        if total == 0 or best == UNREACHED:
            return NO_PATH
        return PathCount(total, best // 2)

    def sccnt_many(self, vertices: Sequence[int]) -> list[CycleCount]:
        """Batched :meth:`sccnt` — bit-identical to the scalar loop.

        Validates the whole batch before answering anything
        (``operator.index`` coercion, one
        :class:`~repro.errors.BatchVertexError` naming every out-of-range
        ``(position, id)``), then answers each distinct id once through
        :meth:`sccnt`: SCCnt is a pure function of the id, and batched
        serving traffic repeats hot vertices.
        """
        vs = checked_vertices(vertices, len(self.store_in))
        sccnt = self.sccnt
        memo = {v: sccnt(v) for v in dict.fromkeys(vs)}
        return [memo[v] for v in vs]

    def spcnt_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[PathCount]:
        """Batched :meth:`spcnt` over ``(x, y)`` pairs — same contract
        as :meth:`sccnt_many`, deduplicated per pair."""
        ps = checked_pairs(pairs, len(self.store_in))
        spcnt = self.spcnt
        memo = {p: spcnt(*p) for p in dict.fromkeys(ps)}
        return [memo[p] for p in ps]

    def cycle_gb_distance(self, v: int) -> int:
        """Raw ``Gb`` distance of ``SPCnt(v_out, v_in)`` (``UNREACHED`` when
        no cycle exists) — exposed for tests and diagnostics."""
        return join_min_dist(self._qmaps_out[v], self._qmaps_in[v])

    # ------------------------------------------------------------------
    # Internal distance/count queries over the implicit Gb
    # (used by dynamic maintenance; all are full-label queries)
    # ------------------------------------------------------------------
    def derived_out_map(self, x: int) -> dict[int, tuple[int, int]]:
        """Full ``Lout(x_in)`` as ``{hub_pos: (dist, count)}``.

        Derived from the stored ``Lout(x_out)`` by the couple shift
        ``sd(x_in, h) = sd(x_out, h) + 1``, with the hub ``x_in`` itself at
        distance 0 replacing the shifted cycle entry.  It iterates in
        ascending distance, as the stored maps do, so it can be joined
        with :func:`~repro.labeling.labelstore.join_min_count`.
        """
        px = self.pos[x]
        derived = {px: (0, 1)}
        for q, dc in self._qmaps_out[x].items():
            if q != px:
                derived[q] = (dc[0] + 1, dc[1])
        return derived

    def qdist_in_in(self, x: int, y: int) -> int:
        """``sd_Gb(x_in, y_in)`` via the full label cover.

        Merge-join over the maintained hub maps: probes ``Lin(y_in)``
        against the couple-shifted ``Lout(x_out)`` without materializing
        the derived map.
        """
        if x == y:
            return 0
        mx = self._qmaps_out[x]
        my = self._qmaps_in[y]
        px = self.pos[x]
        best = UNREACHED
        pair = my.get(px)
        if pair is not None:
            best = pair[0]  # hub x_in itself, at derived distance 0
        get = mx.get
        for q, dc in my.items():
            other = get(q)
            if other is not None and q != px:
                d = other[0] + 1 + dc[0]
                if d < best:
                    best = d
        return best

    def qdist_out_in(self, x: int, y: int) -> int:
        """``sd_Gb(x_out, y_in)`` via the full label cover.

        For ``x == y`` this is the cycle distance.  Correct for all pairs
        actually covered by the reduced index (see module docstring); used by
        CLEAN-LABEL and maintenance pruning, always on (source=out,
        target=in) pairs, which the Vin-hub cover handles.  A merge-join
        over the maintained hub maps — the seed rebuilt a dict of
        ``Lin(y)`` on every call.
        """
        return join_min_dist(self._qmaps_out[x], self._qmaps_in[y])

    # ------------------------------------------------------------------
    # Inverted indexes for maintenance
    # ------------------------------------------------------------------
    def ensure_inverted(self) -> tuple[list[set[int]], list[set[int]]]:
        """Build (once) and return ``(inv_in, inv_out)``:
        ``inv_in[hub_pos]`` is the set of vertices ``w`` with an entry of
        that hub in ``label_in[w]`` (Algorithm 8's inverted index)."""
        if self._inv_in is None or self._inv_out is None:
            self._inv_in = self.store_in.inverted()
            self._inv_out = self.store_out.inverted()
        return self._inv_in, self._inv_out

    def entry_index(self, entries, hub_pos: int) -> int:
        """Position of ``hub_pos`` in a sorted entry sequence, or ``-1``.

        For a packed :class:`~repro.labeling.labelstore.LabelView` this is
        a direct bisect over the packed words (hub bits are most
        significant) — no per-call ``key=lambda``.  Plain tuple lists fall
        back to bisecting against the 1-tuple ``(hub_pos,)``, which
        compares lexicographically below every real entry of that hub.
        """
        finder = getattr(entries, "hub_index", None)
        if finder is not None:
            return finder(hub_pos)
        i = bisect_left(entries, (hub_pos,))
        if i < len(entries) and entries[i][0] == hub_pos:
            return i
        return -1

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, deep: bool = False) -> list[str]:
        """Check index invariants; returns a list of violation messages
        (empty = healthy).

        Structural checks (always): order is a permutation; label lists are
        sorted by hub rank without duplicates; hub ranks never fall below
        the labeled vertex's rank (except a vertex's own cycle entry);
        every in-label list carries its self entry; counts are positive;
        cached inverted indexes agree with the labels.

        ``deep`` additionally replays every query against the BFS oracle —
        O(n * (n + m)), meant for tests and post-mortems, not production.
        """
        problems: list[str] = []
        n = self.graph.n
        if sorted(self.order) != list(range(n)):
            problems.append("order is not a permutation of the vertices")
            return problems
        for v in range(n):
            pv = self.pos[v]
            for side, table in (("in", self.label_in), ("out", self.label_out)):
                hubs = [e[0] for e in table[v]]
                if hubs != sorted(hubs):
                    problems.append(f"L{side}({v}) not sorted by hub rank")
                if len(hubs) != len(set(hubs)):
                    problems.append(f"L{side}({v}) has duplicate hubs")
                for q, d, c, _f in table[v]:
                    if q > pv:
                        problems.append(
                            f"L{side}({v}) hub rank {q} below vertex rank {pv}"
                        )
                    if c <= 0 or d < 0:
                        problems.append(
                            f"L{side}({v}) entry ({q},{d},{c}) malformed"
                        )
            if self.entry_index(self.label_in[v], pv) < 0:
                problems.append(f"Lin({v}) missing its self entry")
        if self._inv_in is not None and self._inv_out is not None:
            for inv, table, side in (
                (self._inv_in, self.label_in, "in"),
                (self._inv_out, self.label_out, "out"),
            ):
                for v in range(n):
                    for q, *_ in table[v]:
                        if v not in inv[q]:
                            problems.append(
                                f"inv_{side}[{q}] missing vertex {v}"
                            )
                for q in range(n):
                    for v in inv[q]:
                        if self.entry_index(table[v], q) < 0:
                            problems.append(
                                f"inv_{side}[{q}] has stale vertex {v}"
                            )
        if deep and not problems:
            from repro.baselines.bfs_cycle import bfs_cycle_count

            for v in range(n):
                expected = bfs_cycle_count(self.graph, v)
                got = self.sccnt(v)
                if got != expected:
                    problems.append(
                        f"SCCnt({v}) = {got}, oracle says {expected}"
                    )
        return problems

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    def total_entries(self) -> int:
        """Stored label entries (the reduced representation's footprint)."""
        return (
            self.store_in.total_entries() + self.store_out.total_entries()
        )

    def size_bytes(self) -> int:
        """Index size under the paper's 64-bit entry encoding — now the
        bytes actually held by the packed arrays, not an estimate."""
        return self.store_in.nbytes() + self.store_out.nbytes()

    def average_label_size(self) -> float:
        """Mean stored entries per vertex per direction."""
        if self.graph.n == 0:
            return 0.0
        return self.total_entries() / (2 * self.graph.n)

    def named_labels_of(
        self, v: int
    ) -> tuple[set[tuple[int, int, int]], set[tuple[int, int, int]]]:
        """``(Lin(v_in), Lout(v_out))`` with hub *vertex ids* — the
        Table III view (hub ids name the ``v_in`` vertex of that original
        vertex)."""
        lin = {
            (self.order[q], d, c) for (q, d, c, _) in self.store_in.entries(v)
        }
        lout = {
            (self.order[q], d, c)
            for (q, d, c, _) in self.store_out.entries(v)
        }
        return lin, lout

    def adopt_labels(self, other: CSCIndex) -> None:
        """Take over another index's label stores (the batch engine's
        rebuild fallback) and drop caches tied to the old labels."""
        self.store_in = other.store_in
        self.store_out = other.store_out
        self._bind_query_maps()
        self._inv_in = None
        self._inv_out = None

    def to_bytes(self) -> bytes:
        """Serialize the labels (graph not included).

        The packed stores are dumped with one ``array.tobytes`` memcpy per
        vertex (container format ``RPCI``) — the seed looped a
        ``struct.pack`` per entry.
        """
        order_blob = b"".join(v.to_bytes(4, "little") for v in self.order)
        return b"".join(
            [
                _INDEX_MAGIC,
                bytes([_INDEX_VERSION]),
                len(self.order).to_bytes(4, "little"),
                order_blob,
                self.store_in.to_bytes(),
                self.store_out.to_bytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, blob: bytes, graph: DiGraph) -> CSCIndex:
        """Rebuild an index from :meth:`to_bytes` output plus its graph."""
        if len(blob) < 9 or blob[:4] != _INDEX_MAGIC:
            raise SerializationError("not a packed CSC index blob")
        if blob[4] != _INDEX_VERSION:
            raise SerializationError(
                f"unsupported CSC index version {blob[4]}"
            )
        n = int.from_bytes(blob[5:9], "little")
        if len(blob) < 9 + 4 * n:
            raise SerializationError("truncated CSC index blob")
        order = [
            int.from_bytes(blob[9 + 4 * i: 13 + 4 * i], "little")
            for i in range(n)
        ]
        offset = 9 + 4 * n
        store_in, consumed = LabelStore.from_bytes_prefix(blob[offset:])
        offset += consumed
        store_out = LabelStore.from_bytes(blob[offset:])
        if len(store_in) != n or len(store_out) != n:
            raise SerializationError("in/out label blobs disagree on order")
        if n != graph.n:
            raise SerializationError(
                f"index was built for n={n}, graph has n={graph.n}"
            )
        return cls(graph, order, positions(order), store_in, store_out)
