"""Packed flat-array label storage with merge-join query kernels.

The paper's C++ implementation owes its microsecond queries to label
entries packed into contiguous 64-bit words (Section VI-A).  The seed
reproduction stored each vertex's labels as a Python list of 4-tuples
``(hub_pos, dist, count, canonical)`` — ~120 bytes per entry of pointer
chasing — and the internal ``qdist``/``derived_out_map`` queries rebuilt a
dict on every call.  :class:`LabelStore` is the packed replacement:

* ``packed[v]`` — an ``array('Q')`` of entries in the paper's 23/17/24
  bit layout (:mod:`repro.labeling.packing`), sorted by hub rank; hub
  bits occupy the *high* end of the word, so integer order on packed
  words is hub order and a plain :func:`bisect.bisect_left` against
  ``hub << HUB_SHIFT`` locates a hub without any key lambda.
* ``canon[v]`` — a per-vertex bitset (one Python int; bit ``i`` is entry
  ``i``'s canonical flag).  The 64 payload bits are fully spent on
  vertex/distance/count, exactly as in the paper, so the flag lives in a
  parallel structure instead of stealing a bit from the layout.
* ``big[v]`` — exact counts for entries whose count saturates the 24-bit
  field (``count >= COUNT_SATURATED`` stores the clamp in the word and
  the exact Python int here).  Pure-Python counts stay arbitrary
  precision — ``sccnt`` answers with 2**26 cycles remain exact — while
  the packed word matches what fixed-width C++ would hold.
* ``_maps[v]`` — the query accelerator ``{hub: (dist, exact_count,
  canonical)}``, the only one a store keeps.  CPython's interpreter
  economics invert the C++ picture: a two-pointer scan over boxed
  ``array('Q')`` words is *slower* than the old tuple merge (measured
  0.3–1.0x), while iterating the smaller side's map and probing the
  larger side's dict at C speed is 2–5x faster.  The query kernels below
  and every maintenance pruning query therefore merge-join through the
  maps, and the packed arrays remain the ground truth for ordering,
  persistence, and footprint.  Every map iterates in ascending ``(dist,
  hub)`` order: joining in increasing iterate-side distance admits an
  early exit — once the running best sum ``B`` is known, entries with
  ``dist > B`` cannot improve or tie it (probe-side distances are
  >= 0) — which cuts the iteration count by 1.3–3x on the benchmark
  graphs (the paper's graphs have short cycles but long-tailed label
  distances).  Every mutator keeps that order (:func:`_place`).

Snapshots (:meth:`LabelStore.snapshot`) implement the read side of the
single-writer / multi-reader serving engine (:mod:`repro.service`):
taking one is a pointer-level copy of the per-vertex lists — the
``array('Q')`` payloads, overflow tables, and resident accelerators are
*shared* — after which the live store goes copy-on-write at per-vertex
granularity.  The first mutation of a vertex since the last snapshot
clones just that vertex's structures (:meth:`_own`), so a snapshot costs
O(n) pointers up front plus O(dirty vertices) data over its lifetime,
never a full copy.  Ownership also logs each vertex the first time it
is claimed in an epoch, and a snapshot keeps the log of the epoch that
ended at it, so what changed between two consecutive snapshots is
known in O(dirty) too (:meth:`LabelStore.claimed_since`).  The
snapshot itself is frozen: any mutation raises
:class:`~repro.errors.FrozenSnapshotError`, which is what makes a
published snapshot safe to read from many threads while the writer keeps
repairing the live store.

Serialization (:meth:`LabelStore.to_bytes` / :meth:`from_bytes`) dumps
the packed arrays with ``array.tobytes`` — one memcpy per vertex instead
of the seed's per-entry ``struct.pack`` loop — and restores them with
``array.frombytes``.  Whether the maps exist up front depends on where a
store comes from:

* :meth:`LabelStore.from_flat` (index construction) packs the words,
  canonical bits and overflow table in one pass per vertex and builds
  ``_maps`` in the same pass, sharing equal accelerator tuples.
* :meth:`LabelStore.from_lists` (tuple tables) runs the same pass.
* A store loaded with :meth:`from_bytes` builds no maps until a caller
  asks (:meth:`LabelStore.ensure_maps`).

``CSCIndex`` asks for the maps when it is constructed, so a live CSC
index always has its accelerator resident.

:class:`LabelTable` / :class:`LabelView` are list-compatible facades so
diagnostics and the existing test suite keep reading (and corrupting)
labels as if they were the old tuple lists; every write goes through the
store so the packed arrays never drift from what queries see.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence

from repro.errors import FrozenSnapshotError, SerializationError
from repro.labeling.packing import (
    COUNT_BITS,
    DISTANCE_BITS,
    ENTRY_BYTES,
    VERTEX_BITS,
    pack_entry,
)

__all__ = [
    "UNREACHED",
    "HUB_SHIFT",
    "COUNT_SATURATED",
    "LabelStore",
    "LabelTable",
    "LabelView",
    "join_min_count",
    "join_min_dist",
    "join_words_min_count",
    "join_words_path",
]

#: Sentinel distance for "not reached"; larger than any real distance.
#: (Re-exported by :mod:`repro.labeling.hpspc` for backward compatibility.)
UNREACHED = 1 << 60

#: Bit offset of the hub-rank field inside a packed word (= 41).
HUB_SHIFT = DISTANCE_BITS + COUNT_BITS

_VERTEX_MAX = (1 << VERTEX_BITS) - 1
_DIST_MASK = (1 << DISTANCE_BITS) - 1
_COUNT_MASK = (1 << COUNT_BITS) - 1

#: A stored count of this value means "saturated — exact count in big[v]".
COUNT_SATURATED = _COUNT_MASK

Entry = tuple[int, int, int, bool]

_MAGIC = b"RPLS"
_VERSION = 1


#: ``bytes.translate`` table turning 0/1 flag bytes into ``int(.., 2)``
#: digits.
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack(hub: int, dist: int, count: int) -> int:
    """Pack one entry, saturating the count (exact value goes to ``big``)."""
    return pack_entry(hub, dist, count, saturate=True)


def _pack_columns(
    hubs: Sequence[int], dists: Sequence[int], counts: Sequence[int],
    flags: Sequence[bool],
) -> tuple[array, int, dict[int, int] | None]:
    """Pack one vertex's non-empty label, given as parallel columns:
    ``(words, canonical bits, overflow table or None)``.

    The common case checks the vertex and distance fields once per
    vertex with ``max()`` and packs every word in one comprehension.  A
    field out of range or a saturated count takes the entry-by-entry
    path, which raises :class:`~repro.errors.PackingOverflowError` on
    the first bad vertex or distance and keeps saturated counts exact
    in the overflow table.  A negative field makes its word negative,
    which ``array('Q')`` refuses, so it takes that path too.
    """
    words = None
    if (max(hubs) <= _VERTEX_MAX and max(dists) <= _DIST_MASK
            and max(counts) < COUNT_SATURATED):
        try:
            words = array("Q", [
                h << HUB_SHIFT | d << COUNT_BITS | c
                for h, d, c in zip(hubs, dists, counts)
            ])
        except OverflowError:
            pass
    big = None
    if words is None:
        words = array("Q", map(_pack, hubs, dists, counts))
        big = {h: c for h, c in zip(hubs, counts)
               if c >= COUNT_SATURATED} or None
    bits = int(bytes(flags[::-1]).translate(_BIT_DIGITS), 2)
    return words, bits, big


def _place(vmap: dict[int, tuple[int, int, bool]], hub: int,
           value: tuple[int, int, bool]) -> None:
    """Add ``hub -> value`` to a map in ascending ``(dist, hub)`` order
    that lacks ``hub``, at its place in that order.  A dict only appends,
    so the entries past the place are popped and appended again: the
    cost is the tail's length, nothing for a new farthest entry."""
    dist = value[0]
    tail = []
    while vmap:
        h, val = item = vmap.popitem()  # the last entry
        if val[0] < dist or (val[0] == dist and h < hub):
            vmap[h] = val  # appended again: back in its place
            break
        tail.append(item)
    vmap[hub] = value
    vmap.update(reversed(tail))


class LabelStore:
    """One direction's label table (all vertices) in packed form."""

    __slots__ = ("packed", "canon", "big", "_maps", "_frozen", "_epoch",
                 "_owner", "_claimed", "_prev", "__weakref__")

    def __init__(self, n: int = 0) -> None:
        self.packed: list[array] = [array("Q") for _ in range(n)]
        self.canon: list[int] = [0] * n
        self.big: list[dict[int, int] | None] = [None] * n
        self._maps: list[dict[int, tuple[int, int, bool]]] | None = None
        # Snapshot support: a frozen store rejects mutation; a live store
        # that has been snapshotted copy-on-writes per vertex (``_owner[v]``
        # records the epoch in which the writer last took exclusive
        # ownership of v's structures; ``_owner is None`` = never
        # snapshotted, the zero-overhead common case).
        self._frozen = False
        self._epoch = 0
        self._owner: list[int] | None = None
        # Epoch log, kept once a snapshot has been taken.  On the live
        # store: the vertices claimed since the last snapshot, in claim
        # order, and a weak link to that snapshot.  On a snapshot: the
        # same two for the epoch that ended at it — what
        # :meth:`claimed_since` answers from.
        self._claimed: list[int] | None = None
        self._prev: weakref.ref[LabelStore] | None = None

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_lists(cls, tables: Sequence[Sequence[Entry]]) -> LabelStore:
        """Pack a list-of-tuple-lists label table (the seed representation).

        Builds the ``_maps`` join accelerator in the same pass
        (:meth:`from_flat`).
        """
        return cls.from_flat(
            [[x for hub, dist, count, flag in entries
              for x in (hub, dist, count, bool(flag))]
             for entries in tables]
        )

    @classmethod
    def from_flat(cls, flats: Iterable[list]) -> LabelStore:
        """Pack per-vertex flat entry lists ``[hub, dist, count,
        canonical, hub, ...]`` — what construction writes.

        One pass per vertex packs the words, the canonical bits and the
        overflow table and builds the ``_maps`` join accelerator, sorting
        the vertex's entries by distance once.  The sort is stable, so
        entries given in ascending hub order, as construction writes
        them, come out in the ``(dist, hub)`` order every map keeps; a
        table out of hub order (a deliberately corrupt one) keeps its
        ties in input order, still ascending in distance, which is all
        the joins need.

        Equal accelerator tuples are shared, one object per value and
        store: labels repeat few values.  On perfbench's churn graph the
        larger side holds 63k entries but about 140 distinct ``(dist,
        count, canonical)`` values.  Sharing keeps the build's young
        generation small, so the one collection that follows a
        paused-GC build (:func:`repro.build.paused_gc`) is short, and it
        saves the memory of the duplicates.
        """
        store = cls(0)
        value_of = {}.setdefault
        packed = store.packed
        canon = store.canon
        big = store.big
        maps: list[dict[int, tuple[int, int, bool]]] = []
        for flat in flats:
            if flat:
                hubs, dists, counts, flags = (
                    flat[0::4], flat[1::4], flat[2::4], flat[3::4]
                )
                arr, bits, b = _pack_columns(hubs, dists, counts, flags)
                values = list(zip(dists, counts, flags))
                pairs = list(zip(hubs, map(value_of, values, values)))
                vmap = dict(map(pairs.__getitem__, sorted(
                    range(len(pairs)), key=dists.__getitem__
                )))
            else:
                arr, bits, b, vmap = array("Q"), 0, None, {}
            packed.append(arr)
            canon.append(bits)
            big.append(b)
            maps.append(vmap)
        store._maps = maps
        return store

    def to_lists(self) -> list[list[Entry]]:
        """The seed tuple-list representation (for legacy kernels/tests)."""
        return [self.entries(v) for v in range(len(self.packed))]

    def copy(self) -> LabelStore:
        """Independent deep copy (join maps rebuilt lazily; the copy of a
        frozen snapshot is a normal mutable store)."""
        clone = LabelStore(0)
        clone.packed = [array("Q", arr) for arr in self.packed]
        clone.canon = list(self.canon)
        clone.big = [dict(b) if b else None for b in self.big]
        return clone

    # ------------------------------------------------------------------
    # Snapshots (copy-on-write at per-vertex granularity)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether this store is an immutable snapshot."""
        return self._frozen

    def snapshot(self) -> LabelStore:
        """An immutable snapshot of the current state.

        The snapshot shares every per-vertex structure (packed array,
        overflow table, resident accelerators) with this store; only the
        top-level vertex-indexed lists are copied, so taking one is O(n)
        pointer copies with **no** label data copied.  Afterwards the
        live store is copy-on-write: the first mutation of a vertex since
        the snapshot clones that vertex's structures, so the snapshot
        keeps answering from the state it captured.

        Must be called from the (single) mutating thread — it reads the
        vertex lists non-atomically.  The returned store rejects every
        mutation with :class:`~repro.errors.FrozenSnapshotError`; reads,
        lazy accelerator builds, and serialization all work.
        """
        snap = LabelStore(0)
        snap.packed = list(self.packed)
        snap.canon = list(self.canon)
        snap.big = list(self.big)
        if self._maps is not None:
            snap._maps = list(self._maps)
        snap._frozen = True
        if not self._frozen:
            # Invalidate all per-vertex ownership: everything is shared
            # with the new snapshot until the writer touches it again.
            self._epoch += 1
            if self._owner is None:
                self._owner = [0] * len(self.packed)
            snap._claimed, snap._prev = self._claimed, self._prev
            self._claimed, self._prev = [], weakref.ref(snap)
        return snap

    def claimed_since(self, prev: LabelStore) -> list[int] | None:
        """The vertices whose structures changed between snapshot
        ``prev`` and this store, ascending — or ``None`` when the log
        cannot tell: ``prev`` is not the snapshot the live store took
        just before this one (an intermediate snapshot, another store,
        a rebuild's fresh store), or the vertex count changed.

        Every change to a vertex after a snapshot goes through
        :meth:`_own` or :meth:`_claim`, which log the vertex the first
        time in an epoch and give it a new ``packed`` array, so the
        answer is exactly the vertices whose ``packed`` is no longer
        ``prev``'s; O(dirty) where a scan of all vertices is O(n)."""
        if (self._prev is None or self._prev() is not prev
                or len(prev.packed) != len(self.packed)):
            return None
        return sorted(self._claimed)

    def _own(self, v: int) -> None:
        """Copy-on-write guard: make vertex ``v``'s structures exclusively
        ours before an in-place mutation (no-op when no snapshot shares
        them)."""
        if self._frozen:
            raise FrozenSnapshotError(
                "label store snapshot is frozen; apply updates to the "
                "live store it was taken from"
            )
        owner = self._owner
        if owner is None or owner[v] == self._epoch:
            return
        owner[v] = self._epoch
        self._claimed.append(v)
        self.packed[v] = array("Q", self.packed[v])
        b = self.big[v]
        if b is not None:
            self.big[v] = dict(b)
        if self._maps is not None:
            self._maps[v] = dict(self._maps[v])

    def _claim(self, v: int) -> None:
        """Ownership without copying — for wholesale replacement of ``v``'s
        structures, where copying the old ones would be wasted work."""
        if self._frozen:
            raise FrozenSnapshotError(
                "label store snapshot is frozen; apply updates to the "
                "live store it was taken from"
            )
        owner = self._owner
        if owner is not None and owner[v] != self._epoch:
            owner[v] = self._epoch
            self._claimed.append(v)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.packed)

    def entry_count(self, v: int) -> int:
        return len(self.packed[v])

    def total_entries(self) -> int:
        return sum(len(arr) for arr in self.packed)

    def nbytes(self) -> int:
        """Actual bytes held by the packed words (the Figure 9(b) metric)."""
        return self.total_entries() * ENTRY_BYTES

    def decode(self, v: int, i: int) -> Entry:
        """Entry ``i`` of vertex ``v`` as a ``(hub, dist, count, flag)``
        tuple with the *exact* count."""
        e = self.packed[v][i]
        hub = e >> HUB_SHIFT
        count = e & _COUNT_MASK
        if count == COUNT_SATURATED:
            b = self.big[v]
            if b is not None:
                count = b.get(hub, count)
        return (hub, (e >> COUNT_BITS) & _DIST_MASK, count,
                bool(self.canon[v] >> i & 1))

    def entries(self, v: int) -> list[Entry]:
        """All entries of ``v`` as exact tuples (decoded copy)."""
        bits = self.canon[v]
        big = self.big[v]
        out: list[Entry] = []
        for i, e in enumerate(self.packed[v]):
            hub = e >> HUB_SHIFT
            count = e & _COUNT_MASK
            if count == COUNT_SATURATED and big is not None:
                count = big.get(hub, count)
            out.append((hub, (e >> COUNT_BITS) & _DIST_MASK, count,
                        bool(bits >> i & 1)))
        return out

    def hubs(self, v: int) -> list[int]:
        """Hub ranks of ``v``'s entries, in storage order."""
        return [e >> HUB_SHIFT for e in self.packed[v]]

    def inverted(self) -> list[set[int]]:
        """``hub_pos -> {vertices with an entry of that hub}`` — the
        inverted index of dynamic maintenance (Algorithm 8)."""
        inv: list[set[int]] = [set() for _ in self.packed]
        for w, arr in enumerate(self.packed):
            for e in arr:
                inv[e >> HUB_SHIFT].add(w)
        return inv

    def hub_index(self, v: int, hub: int) -> int:
        """Index of ``hub`` in ``v``'s sorted entries, or ``-1`` — a plain
        bisect over the packed words (hub bits are the most significant)."""
        arr = self.packed[v]
        i = bisect_left(arr, hub << HUB_SHIFT)
        if i < len(arr) and arr[i] >> HUB_SHIFT == hub:
            return i
        return -1

    def get(self, v: int, hub: int) -> Entry | None:
        """Entry of ``hub`` at vertex ``v``, or ``None``."""
        i = self.hub_index(v, hub)
        return self.decode(v, i) if i >= 0 else None

    # ------------------------------------------------------------------
    # Join maps (query accelerator)
    # ------------------------------------------------------------------
    def ensure_maps(self) -> list[dict[int, tuple[int, int, bool]]]:
        """Materialize (once) the per-vertex ``{hub: (dist, count,
        canonical)}`` maps, each in ascending ``(dist, hub)`` order and
        with equal value tuples shared, as :meth:`from_flat` builds them.

        Kept in sync incrementally by every sorted mutation; raw view
        mutations (which may create structurally invalid states on
        purpose) refresh the touched vertex's map wholesale.
        """
        if self._maps is None:
            value_of = {}.setdefault
            self._maps = [self._build_map(v, value_of)
                          for v in range(len(self.packed))]
        return self._maps

    def _build_map(self, v: int, value_of=None
                   ) -> dict[int, tuple[int, int, bool]]:
        """Vertex ``v``'s map, decoded from its words; ``value_of`` is a
        ``dict.setdefault`` that shares equal value tuples."""
        bits = self.canon[v]
        rows = sorted([
            ((e >> COUNT_BITS) & _DIST_MASK, e >> HUB_SHIFT,
             e & _COUNT_MASK, bits >> i & 1 == 1)
            for i, e in enumerate(self.packed[v])
        ])
        big = self.big[v]
        if big:
            rows = [(d, h, big.get(h, c) if c == COUNT_SATURATED else c, f)
                    for d, h, c, f in rows]
        if value_of is None:
            value_of = {}.setdefault
        return {h: value_of((d, c, f), (d, c, f)) for d, h, c, f in rows}

    def _refresh_map(self, v: int) -> None:
        if self._maps is not None:
            self._maps[v] = self._build_map(v)

    # ------------------------------------------------------------------
    # Mutation (sorted fast paths — used by dynamic maintenance)
    # ------------------------------------------------------------------
    def _set_big(self, v: int, hub: int, count: int) -> None:
        b = self.big[v]
        if count >= COUNT_SATURATED:
            if b is None:
                b = self.big[v] = {}
            b[hub] = count
        elif b is not None:
            b.pop(hub, None)

    def set_at(self, v: int, i: int, hub: int, dist: int, count: int,
               flag: bool) -> None:
        """Overwrite entry ``i`` in place (hub may stay or change)."""
        self._own(v)
        old_hub = self.packed[v][i] >> HUB_SHIFT
        self.packed[v][i] = _pack(hub, dist, count)
        if flag:
            self.canon[v] |= 1 << i
        else:
            self.canon[v] &= ~(1 << i)
        if old_hub != hub:
            b = self.big[v]
            if b is not None:
                b.pop(old_hub, None)
            self._set_big(v, hub, count)
            self._refresh_map(v)
        else:
            self._set_big(v, hub, count)
            if self._maps is not None:
                vmap = self._maps[v]
                old = vmap.get(hub)
                if old is not None and old[0] == dist:
                    vmap[hub] = (dist, count, flag)  # keeps its place
                else:
                    vmap.pop(hub, None)
                    _place(vmap, hub, (dist, count, flag))

    def insert_sorted(self, v: int, hub: int, dist: int, count: int,
                      flag: bool) -> int:
        """Insert an entry at its sorted position; returns the index.

        The hub must not already be present (callers upsert through
        :meth:`hub_index` first).
        """
        self._own(v)
        arr = self.packed[v]
        word = _pack(hub, dist, count)
        i = bisect_left(arr, word)
        arr.insert(i, word)
        bits = self.canon[v]
        low = bits & ((1 << i) - 1)
        self.canon[v] = ((bits >> i) << (i + 1)) | (int(flag) << i) | low
        self._set_big(v, hub, count)
        if self._maps is not None:
            _place(self._maps[v], hub, (dist, count, flag))
        return i

    def delete_at(self, v: int, i: int) -> None:
        """Remove entry ``i``."""
        self._own(v)
        arr = self.packed[v]
        hub = arr[i] >> HUB_SHIFT
        del arr[i]
        bits = self.canon[v]
        low = bits & ((1 << i) - 1)
        self.canon[v] = ((bits >> (i + 1)) << i) | low
        b = self.big[v]
        if b is not None:
            b.pop(hub, None)
        if self._maps is not None:
            self._maps[v].pop(hub, None)  # the rest keep their order

    def replace_vertex(self, v: int, entries: Iterable[Entry]) -> None:
        """Wholesale replacement of ``v``'s entries (any order accepted)."""
        self._claim(v)
        arr = array("Q")
        bits = 0
        self.big[v] = None
        for i, (hub, dist, count, flag) in enumerate(entries):
            arr.append(_pack(hub, dist, count))
            if flag:
                bits |= 1 << i
            if count >= COUNT_SATURATED:
                self._set_big(v, hub, count)
        self.packed[v] = arr
        self.canon[v] = bits
        self._refresh_map(v)

    def add_vertex(self, entries: Iterable[Entry] = ()) -> int:
        """Append storage for one new vertex; returns its id."""
        if self._frozen:
            raise FrozenSnapshotError(
                "label store snapshot is frozen; apply updates to the "
                "live store it was taken from"
            )
        v = len(self.packed)
        self.packed.append(array("Q"))
        self.canon.append(0)
        self.big.append(None)
        if self._owner is not None:
            # The new vertex exists only in the live store's lists, so the
            # writer owns it outright.
            self._owner.append(self._epoch)
        if self._maps is not None:
            self._maps.append({})
        if entries:
            self.replace_vertex(v, entries)
        return v

    # ------------------------------------------------------------------
    # Raw mutation (view support — may create invalid states on purpose)
    # ------------------------------------------------------------------
    def append_raw(self, v: int, entry: Entry) -> None:
        """Append without any sort/duplicate check (corruption tests)."""
        self._own(v)
        hub, dist, count, flag = entry
        i = len(self.packed[v])
        self.packed[v].append(_pack(hub, dist, count))
        if flag:
            self.canon[v] |= 1 << i
        self._set_big(v, hub, count)
        self._refresh_map(v)

    def insert_raw(self, v: int, i: int, entry: Entry) -> None:
        """Positional insert without sort checks."""
        self._own(v)
        hub, dist, count, flag = entry
        arr = self.packed[v]
        i = max(0, min(i, len(arr)))
        arr.insert(i, _pack(hub, dist, count))
        bits = self.canon[v]
        low = bits & ((1 << i) - 1)
        self.canon[v] = ((bits >> i) << (i + 1)) | (int(flag) << i) | low
        self._set_big(v, hub, count)
        self._refresh_map(v)

    def reverse(self, v: int) -> None:
        """Reverse ``v``'s entry order (corruption tests)."""
        self._own(v)
        arr = self.packed[v]
        arr.reverse()
        k = len(arr)
        bits = self.canon[v]
        out = 0
        for i in range(k):
            if bits >> i & 1:
                out |= 1 << (k - 1 - i)
        self.canon[v] = out

    # ------------------------------------------------------------------
    # Persistence — one memcpy per vertex instead of per-entry structs
    # ------------------------------------------------------------------
    def _append_vertex_bytes(self, v: int, chunks: list[bytes]) -> None:
        """Append vertex ``v``'s wire segment (one memcpy of the packed
        words plus flag/overflow trailers) to ``chunks``."""
        arr = self.packed[v]
        if sys.byteorder != "little":  # pragma: no cover
            arr = array("Q", arr)
            arr.byteswap()
        k = len(arr)
        chunks.append(k.to_bytes(4, "little"))
        chunks.append(arr.tobytes())
        chunks.append(self.canon[v].to_bytes((k + 7) // 8 or 1, "little"))
        b = self.big[v] or {}
        chunks.append(len(b).to_bytes(4, "little"))
        for hub, count in sorted(b.items()):
            if count >= (1 << 64):
                raise SerializationError(
                    f"count {count} exceeds 64-bit storage"
                )
            chunks.append(hub.to_bytes(4, "little"))
            chunks.append(count.to_bytes(8, "little"))

    def vertex_to_bytes(self, v: int) -> bytes:
        """One vertex's labels in the :meth:`to_bytes` wire layout — the
        unit of the incremental checkpoints in :mod:`repro.persist`."""
        chunks: list[bytes] = []
        self._append_vertex_bytes(v, chunks)
        return b"".join(chunks)

    def to_bytes(self) -> bytes:
        """Serialize the table; packed words are dumped verbatim."""
        n = len(self.packed)
        chunks = [_MAGIC, bytes([_VERSION]), n.to_bytes(4, "little")]
        for v in range(n):
            self._append_vertex_bytes(v, chunks)
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> LabelStore:
        """Inverse of :meth:`to_bytes` (join maps stay lazy)."""
        store, consumed = cls.from_bytes_prefix(blob)
        if consumed != len(blob):
            raise SerializationError("trailing bytes in label store blob")
        return store

    @classmethod
    def from_bytes_prefix(cls, blob: bytes) -> tuple[LabelStore, int]:
        """Decode one self-describing store blob from the front of
        ``blob``; returns ``(store, bytes_consumed)``."""
        view = memoryview(blob)
        if len(blob) < 9 or bytes(view[:4]) != _MAGIC:
            raise SerializationError("not a packed label store blob")
        if view[4] != _VERSION:
            raise SerializationError(
                f"unsupported label store version {view[4]}"
            )
        n = int.from_bytes(view[5:9], "little")
        store = cls(n)
        off = 9
        try:
            for v in range(n):
                off = store.set_vertex_from_bytes(v, view, off)
            if off > len(blob):
                raise SerializationError("truncated label store blob")
        except ValueError as exc:  # pragma: no cover - defensive
            raise SerializationError(
                f"truncated label store blob: {exc}"
            ) from exc
        return store, off

    def set_vertex_from_bytes(self, v: int, view, off: int = 0) -> int:
        """Replace vertex ``v``'s labels from a :meth:`vertex_to_bytes`
        wire segment at ``view[off:]``; returns the offset just past it.

        Takes wholesale ownership of ``v`` (copy-on-write aware), so a
        snapshot taken before the patch keeps its captured labels.  A
        resident map for ``v`` is rebuilt from the new words.
        """
        self._claim(v)
        k = int.from_bytes(view[off:off + 4], "little")
        off += 4
        nbytes = k * ENTRY_BYTES
        if off + nbytes > len(view):
            raise SerializationError("truncated label store blob")
        arr = array("Q")
        arr.frombytes(view[off:off + nbytes])
        if sys.byteorder != "little":  # pragma: no cover
            arr.byteswap()
        self.packed[v] = arr
        off += nbytes
        cbytes = (k + 7) // 8 or 1
        self.canon[v] = int.from_bytes(view[off:off + cbytes], "little")
        off += cbytes
        nbig = int.from_bytes(view[off:off + 4], "little")
        off += 4
        big: dict[int, int] | None = None
        if nbig:
            if off + 12 * nbig > len(view):
                raise SerializationError("truncated label store blob")
            big = {}
            for _ in range(nbig):
                hub = int.from_bytes(view[off:off + 4], "little")
                big[hub] = int.from_bytes(
                    view[off + 4:off + 12], "little"
                )
                off += 12
        self.big[v] = big
        self._refresh_map(v)
        return off

    # ------------------------------------------------------------------
    def eq_entries(self, other: LabelStore) -> bool:
        """Exact logical equality (entries, flags, exact counts)."""
        if len(self.packed) != len(other.packed):
            return False
        for v in range(len(self.packed)):
            if (self.packed[v] != other.packed[v]
                    or self.canon[v] != other.canon[v]
                    or (self.big[v] or {}) != (other.big[v] or {})):
                return False
        return True


# ---------------------------------------------------------------------------
# Merge-join kernels
# ---------------------------------------------------------------------------


def join_min_count(
    ma: dict[int, tuple[int, int]], mb: dict[int, tuple[int, int]]
) -> tuple[int, int]:
    """Equations (1)–(2) over two hub maps: ``(distance, count)`` with
    ``distance == UNREACHED`` when no hub is shared.

    Iterates the smaller side and probes the larger at C dict speed —
    the measured-fastest CPython join for hub-label sizes (see module
    docstring).  Both maps must iterate in ascending distance, as every
    :class:`LabelStore` map does: once the best sum ``B`` is known, an
    entry with ``dist > B`` can neither improve nor tie it (probe-side
    distances are >= 0), so the scan stops there.
    """
    if len(ma) > len(mb):
        ma, mb = mb, ma
    best = UNREACHED
    total = 0
    get = mb.get
    for hub, dc in ma.items():
        d_a = dc[0]
        if d_a > best:
            break
        other = get(hub)
        if other is not None:
            d = d_a + other[0]
            if d < best:
                best = d
                total = dc[1] * other[1]
            elif d == best:
                total += dc[1] * other[1]
    return best, total


def join_min_dist(
    ma: dict[int, tuple[int, int]], mb: dict[int, tuple[int, int]]
) -> int:
    """Distance-only variant of :func:`join_min_count` (same order
    requirement and early exit)."""
    if len(ma) > len(mb):
        ma, mb = mb, ma
    best = UNREACHED
    get = mb.get
    for hub, dc in ma.items():
        d_a = dc[0]
        if d_a > best:
            break
        other = get(hub)
        if other is not None:
            d = d_a + other[0]
            if d < best:
                best = d
    return best


# ---------------------------------------------------------------------------
# Word kernels: joins straight over packed words
# ---------------------------------------------------------------------------
#
# Readers that hold only the packed words — a memory-mapped label image
# (:mod:`repro.cluster.image`), no accelerators — join two sides given
# as hub-sorted lists of words plus each side's overflow table (``big``,
# ``None`` when no count saturates).  The larger side becomes a
# ``{hub: word}`` dict built at C speed and the smaller side probes it,
# the same iterate-small/probe-large shape as :func:`join_min_count`.
# Building that dict per query makes a word join ~3x slower than the
# resident-accelerator join (screen graph: ~7 µs against ~2.3 µs per
# ``sccnt``), which is the price of reading labels no process keeps
# accelerators for.  Variants that intersect hub sets first, bisect the
# sorted words, or store sides distance-sorted for an early exit
# measured no faster.

#: ``word -> hub``, a C-level callable for ``map``.
_hub_of = HUB_SHIFT.__rrshift__


def _saturated(word: int, big: dict[int, int] | None) -> int:
    """The exact count of a word whose count field saturated."""
    if not big:
        return COUNT_SATURATED
    return big.get(word >> HUB_SHIFT, COUNT_SATURATED)


def join_words_min_count(
    words_a: list[int], words_b: list[int],
    big_a: dict[int, int] | None, big_b: dict[int, int] | None,
) -> tuple[int, int]:
    """:func:`join_min_count` over two sides' packed words:
    ``(distance, count)``, ``distance == UNREACHED`` when no hub is
    shared."""
    if len(words_a) > len(words_b):
        words_a, words_b = words_b, words_a
        big_a, big_b = big_b, big_a
    get = dict(zip(map(_hub_of, words_b), words_b)).get
    best = UNREACHED
    total = 0
    for wa in words_a:
        wb = get(wa >> HUB_SHIFT)
        if wb is not None:
            d = ((wa >> COUNT_BITS & _DIST_MASK)
                 + (wb >> COUNT_BITS & _DIST_MASK))
            if d <= best:
                ca = wa & _COUNT_MASK
                if ca == COUNT_SATURATED:
                    ca = _saturated(wa, big_a)
                cb = wb & _COUNT_MASK
                if cb == COUNT_SATURATED:
                    cb = _saturated(wb, big_b)
                c = ca * cb
                if d < best:
                    best = d
                    total = c
                else:
                    total += c
    return best, total


def join_words_path(
    words_out: list[int], words_in: list[int], own: int,
    big_out: dict[int, int] | None, big_in: dict[int, int] | None,
) -> tuple[int, int]:
    """``SPCnt_Gb(x_in, y_in)`` over packed words, as
    :meth:`repro.core.csc.CSCIndex.spcnt` computes it from the hub maps:
    ``words_in`` is ``Lin(y_in)``, ``words_out`` is ``Lout(x_out)``
    shifted by the couple edge, and hub ``own`` (``x_in``'s rank) is met
    at derived distance 0 with count 1."""
    get = dict(zip(map(_hub_of, words_out), words_out)).get
    best = UNREACHED
    total = 0
    for wb in words_in:
        hub = wb >> HUB_SHIFT
        d = wb >> COUNT_BITS & _DIST_MASK
        if hub == own:
            c = 1
        else:
            wa = get(hub)
            if wa is None:
                continue
            d += (wa >> COUNT_BITS & _DIST_MASK) + 1
            c = wa & _COUNT_MASK
            if c == COUNT_SATURATED:
                c = _saturated(wa, big_out)
        if d <= best:
            cb = wb & _COUNT_MASK
            if cb == COUNT_SATURATED:
                cb = _saturated(wb, big_in)
            c *= cb
            if d < best:
                best = d
                total = c
            else:
                total += c
    return best, total


# ---------------------------------------------------------------------------
# List-compatible facades
# ---------------------------------------------------------------------------


class LabelView:
    """Mutable list-like view of one vertex's labels.

    Reads decode packed entries to the seed's ``(hub, dist, count,
    canonical)`` tuples; writes go through the store (including writes
    that deliberately corrupt ordering, for ``validate`` tests).
    """

    __slots__ = ("_store", "_v")

    def __init__(self, store: LabelStore, v: int) -> None:
        self._store = store
        self._v = v

    def hub_index(self, hub: int) -> int:
        """Sorted position of ``hub`` (or ``-1``) — direct packed bisect."""
        return self._store.hub_index(self._v, hub)

    def __len__(self) -> int:
        return len(self._store.packed[self._v])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._store.entries(self._v)[i]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("label index out of range")
        return self._store.decode(self._v, i)

    def __setitem__(self, i, value) -> None:
        if isinstance(i, slice):
            entries = self._store.entries(self._v)
            entries[i] = value
            self._store.replace_vertex(self._v, entries)
            return
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("label index out of range")
        hub, dist, count, flag = value
        self._store.set_at(self._v, i, hub, dist, count, bool(flag))

    def __delitem__(self, i) -> None:
        if isinstance(i, slice):
            entries = self._store.entries(self._v)
            del entries[i]
            self._store.replace_vertex(self._v, entries)
            return
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("label index out of range")
        self._store.delete_at(self._v, i)

    def insert(self, i: int, value: Entry) -> None:
        self._store.insert_raw(self._v, i, value)

    def append(self, value: Entry) -> None:
        self._store.append_raw(self._v, value)

    def reverse(self) -> None:
        self._store.reverse(self._v)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._store.entries(self._v))

    def __contains__(self, value) -> bool:
        return value in self._store.entries(self._v)

    def __eq__(self, other) -> bool:
        if isinstance(other, LabelView):
            return self._store.entries(self._v) == other._store.entries(
                other._v
            )
        if isinstance(other, list):
            return self._store.entries(self._v) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"LabelView({self._store.entries(self._v)!r})"


class LabelTable:
    """List-like view of a whole :class:`LabelStore` side
    (``table[v]`` → :class:`LabelView`)."""

    __slots__ = ("_store",)

    def __init__(self, store: LabelStore) -> None:
        self._store = store

    @property
    def store(self) -> LabelStore:
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, v: int) -> LabelView:
        if not 0 <= v < len(self._store):
            raise IndexError("vertex out of range")
        return LabelView(self._store, v)

    def __setitem__(self, v: int, entries: Iterable[Entry]) -> None:
        self._store.replace_vertex(v, entries)

    def __iter__(self) -> Iterator[LabelView]:
        for v in range(len(self._store)):
            yield LabelView(self._store, v)

    def append(self, entries: Iterable[Entry]) -> None:
        """Extend the table by one vertex (facade ``add_vertex`` support)."""
        self._store.add_vertex(list(entries))

    def __eq__(self, other) -> bool:
        if isinstance(other, LabelTable):
            return self._store.eq_entries(other._store)
        if isinstance(other, (list, tuple)):
            if len(other) != len(self._store):
                return False
            return all(
                self._store.entries(v) == list(other[v])
                for v in range(len(self._store))
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"LabelTable(n={len(self._store)})"


def coerce_store(labels) -> LabelStore:
    """Accept a :class:`LabelStore`, :class:`LabelTable`, or the seed
    list-of-tuple-lists and return a store (adopting, not copying, an
    existing store)."""
    if isinstance(labels, LabelStore):
        return labels
    if isinstance(labels, LabelTable):
        return labels.store
    return LabelStore.from_lists(labels)
