"""Dynamic maintenance of the CSC index (paper Section V).

Edge insertion — INCCNT (Algorithms 5–7)
----------------------------------------
Inserting ``(a, b)`` in ``G0`` inserts ``(a_out, b_in)`` in the implicit
``Gb``.  Affected hubs are read off the labels (Definition V.1):

* forward hubs ``hubA`` from ``Lin(a_out)`` — i.e. the stored
  ``Lin(a_in)`` shifted by the couple edge — restricted to hubs ranked above
  ``b_in`` (every new path contains ``b_in``, so a hub it outranks cannot be
  the path's highest vertex);
* backward hubs ``hubB`` from ``Lout(b_in)`` — ``{b_in}`` plus the stored
  ``Lout(b_out)`` shifted — restricted to hubs ranked above ``a_out``.

Hubs are processed in descending rank order; each runs a resumed counting
BFS seeded with its *label's* count (Theorem V.1), pruned wherever the
tentative distance exceeds the full-index query (Algorithm 6, cases 1–3),
updating entries per Algorithm 7.  Stale seeds (possible under the
redundancy strategy) start strictly above the query distance everywhere and
prune immediately, so they are harmless.

Labels live in the packed flat-array store
(:mod:`repro.labeling.labelstore`), so the repair passes patch 64-bit
entries in place.  Every pruning query is a merge-join over the store's
maintained hub maps: the hub-side map (derived once per pass into a
buffer reused across the whole update) is iterated, and the visited
vertex's map is probed at C dict speed — the seed instead scanned the
vertex's tuple list and, per hub, rebuilt the hub-side dict from
scratch.

Two strategies (Section V-B):

* ``"redundancy"`` (default) — dominated stale entries stay; queries remain
  correct because a stale pair-sum always exceeds the true minimum.
* ``"minimality"`` — every replace/insert triggers CLEAN-LABEL
  (Algorithm 8) over the touched vertex's labels and the inverted indexes,
  restoring Theorem V.3 minimality at much higher cost (Figure 11).

Edge deletion — DECCNT (Section V-C)
------------------------------------
Affected hubs are *all* vertices satisfying the paper's distance conditions
(computed exactly with four plain BFSes on the pre-deletion graph):
``hubA = {v : sd(v,a) + 1 = sd(v,b)}`` and
``hubB = {u : sd(b,u) + 1 = sd(a,u)}``, plus ``a`` itself on the out-side
when ``(a, b)`` lies on a shortest cycle through ``a`` — also read off those
BFSes, since that cycle is one hop to an out-neighbour ``x`` plus
``sd(x, a)``.  Discovery therefore reads the graph and never the labels:
which hubs a deletion affects, and hence whether a batch takes the rebuild
fallback, is a function of the graph alone.  For each affected hub in
descending rank order we re-run the construction BFS on ``G-`` and *replace
the hub's whole label fingerprint*: fresh entries are upserted and entries
the fresh BFS no longer justifies are dropped via the inverted index.  This
implements the paper's "delete a superset, then re-add by BFS from each
affected hub" and is what makes deletions one-to-two orders slower than
insertions (Figure 12(a) vs 11(a)).  It also scrubs any redundancy-mode
leftovers of the affected hubs, which is required for correctness: a
deletion can raise a true distance up to a stale entry's value, at which
point that entry would otherwise re-enter query minima with a rotten count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.csc import CSCIndex
from repro.errors import ConfigurationError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import INF, bfs_distances
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.labelstore import UNREACHED, LabelStore

__all__ = [
    "UpdateStats",
    "insert_edge",
    "delete_edge",
    "deletion_affected_hubs",
    "STRATEGIES",
]

STRATEGIES = ("redundancy", "minimality")


@dataclass
class UpdateStats:
    """Instrumentation for one index update (Figures 11(b) / 12(b))."""

    operation: str
    edge: tuple[int, int]
    strategy: str = "redundancy"
    hubs_processed: int = 0
    #: fingerprint-repair BFSes run, one per repaired side — a hub
    #: repaired on both sides counts twice (deletions only)
    repair_bfs_count: int = 0
    vertices_visited: int = 0
    entries_added: int = 0
    entries_updated: int = 0
    entries_removed: int = 0
    details: dict = field(default_factory=dict)

    @property
    def net_entry_delta(self) -> int:
        """Net change in stored label entries."""
        return self.entries_added - self.entries_removed


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )


def _canonical_shift_map(
    store: LabelStore, v: int, limit_hub: int, shift: int
) -> dict[int, int]:
    """``{hub: dist + shift}`` over ``v``'s canonical entries whose hub
    ranks strictly above ``limit_hub`` (i.e. ``hub < limit_hub``)."""
    maps = store._maps or store.ensure_maps()
    return {
        h: dc[0] + shift
        for h, dc in maps[v].items()
        if h < limit_hub and dc[2]
    }


# ---------------------------------------------------------------------------
# Incremental update (Algorithm 5: INCCNT)
# ---------------------------------------------------------------------------


def insert_edge(
    index: CSCIndex, a: int, b: int, strategy: str = "redundancy"
) -> UpdateStats:
    """Insert edge ``(a, b)`` into the graph and update the index (INCCNT).

    Raises :class:`~repro.errors.EdgeExistsError` (before touching the
    index) if the edge is already present.
    """
    _check_strategy(strategy)
    index.graph.add_edge(a, b)
    index.ensure_inverted()
    stats = UpdateStats("insert", (a, b), strategy)
    pos = index.pos
    pa, pb = pos[a], pos[b]
    maps_in = index.store_in.ensure_maps()
    maps_out = index.store_out.ensure_maps()

    forward_seeds: dict[int, tuple[int, int]] = {}
    for q, dc in maps_in[a].items():
        if q < pb:
            # sd(q_in, a_out) = d + 1; BFS starts at b_in one edge later.
            forward_seeds[q] = (dc[0] + 2, dc[1])
    backward_seeds: dict[int, tuple[int, int]] = {}
    if pb <= pa:
        backward_seeds[pb] = (1, 1)  # hub b_in itself: a_out -> b_in
    for q, dc in maps_out[b].items():
        if q != pb and q <= pa:
            # sd(b_in, q_in) = d + 1; reverse BFS starts at a_out.
            backward_seeds[q] = (dc[0] + 2, dc[1])

    # Hub-side full-map buffers, reused across every hub of this update.
    full_buf: dict[int, int] = {}
    for q in sorted(set(forward_seeds) | set(backward_seeds)):
        stats.hubs_processed += 1
        seed = forward_seeds.get(q)
        if seed is not None:
            _forward_pass(
                index, q, b, seed[0], seed[1], strategy, stats, full_buf
            )
        seed = backward_seeds.get(q)
        if seed is not None:
            _backward_pass(
                index, q, a, seed[0], seed[1], strategy, stats, full_buf
            )
    return stats


def _forward_pass(
    index: CSCIndex,
    q: int,
    start: int,
    d0: int,
    c0: int,
    strategy: str,
    stats: UpdateStats,
    out_full: dict[int, int],
) -> None:
    """Algorithm 6 (FORWARD-PASS): update in-labels below hub ``q``."""
    graph = index.graph
    pos = index.pos
    store_in = index.store_in
    hub_vertex = index.order[q]
    # Full and canonical views of the derived Lout(q_in); the full map
    # fills a buffer reused across the whole insert.
    out_full.clear()
    out_full[q] = 0
    for q2, dc in index.store_out.ensure_maps()[hub_vertex].items():
        if q2 != q:
            out_full[q2] = dc[0] + 1
    out_canon = _canonical_shift_map(index.store_out, hub_vertex, q, 1)

    maps_in = store_in.ensure_maps()
    full_items = list(out_full.items())
    dist: dict[int, int] = {start: d0}
    cnt: dict[int, int] = {start: c0}
    queue: deque[int] = deque((start,))
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        stats.vertices_visited += 1
        # Full-index pruning query (Algorithm 6): every hub of the derived
        # Lout(q_in) ranks at or above q, so probing w's full map against
        # those hubs covers exactly the seed's <=q label prefix scan.
        d_query = UNREACHED
        get = maps_in[w].get
        for h2, od in full_items:
            t = get(h2)
            if t is not None:
                d2 = od + t[0]
                if d2 < d_query:
                    d_query = d2
        if d_w > d_query:
            continue  # Case 1: not on a new shortest path
        _update_entry(
            index, store_in, index._inv_in, w, q, d_w, cnt[w],
            out_canon, forward=True, strategy=strategy, stats=stats,
        )
        d_next = d_w + 2
        c_w = cnt[w]
        for u in graph.out_neighbors(w):
            if pos[u] > q:
                d_u = dist.get(u)
                if d_u is None:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                elif d_u == d_next:
                    cnt[u] += c_w


def _backward_pass(
    index: CSCIndex,
    q: int,
    start: int,
    d0: int,
    c0: int,
    strategy: str,
    stats: UpdateStats,
    in_full: dict[int, int],
) -> None:
    """BACKWARD-PASS: update out-labels below hub ``q`` (reverse BFS)."""
    graph = index.graph
    pos = index.pos
    store_out = index.store_out
    hub_vertex = index.order[q]
    in_full.clear()
    for q2, dc in index.store_in.ensure_maps()[hub_vertex].items():
        in_full[q2] = dc[0]
    in_canon = _canonical_shift_map(index.store_in, hub_vertex, q, 0)

    maps_out = store_out.ensure_maps()
    full_items = list(in_full.items())
    dist: dict[int, int] = {start: d0}
    cnt: dict[int, int] = {start: c0}
    queue: deque[int] = deque((start,))
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        stats.vertices_visited += 1
        d_query = UNREACHED
        get = maps_out[w].get
        for h2, od in full_items:
            t = get(h2)
            if t is not None:
                d2 = od + t[0]
                if d2 < d_query:
                    d_query = d2
        if d_w > d_query:
            continue
        _update_entry(
            index, store_out, index._inv_out, w, q, d_w, cnt[w],
            in_canon, forward=False, strategy=strategy, stats=stats,
        )
        if w == hub_vertex:
            continue  # couple-cycle: cycle entry updated, prune
        d_next = d_w + 2
        c_w = cnt[w]
        for u in graph.in_neighbors(w):
            if pos[u] >= q:
                d_u = dist.get(u)
                if d_u is None:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                elif d_u == d_next:
                    cnt[u] += c_w


def _update_entry(
    index: CSCIndex,
    store: LabelStore,
    inv: list[set[int]] | None,
    w: int,
    q: int,
    d: int,
    c: int,
    hub_canon: dict[int, int],
    forward: bool,
    strategy: str,
    stats: UpdateStats,
) -> None:
    """Algorithm 7 (UPDATE-LABEL) with canonical-flag recomputation —
    patches the packed entry in place."""
    # Canonical distance via strictly higher canonical hubs, for the flag
    # (hub_canon's keys all rank strictly above q by construction).
    d_canon = UNREACHED
    get = (store._maps or store.ensure_maps())[w].get
    for h2, od in hub_canon.items():
        t = get(h2)
        if t is not None and t[2]:
            d2 = od + t[0]
            if d2 < d_canon:
                d_canon = d2
    flag = d_canon > d
    i = store.hub_index(w, q)
    if i >= 0:
        _q, d_old, c_old, _f_old = store.decode(w, i)
        if d < d_old:
            store.set_at(w, i, q, d, c, flag)
            stats.entries_updated += 1
            if strategy == "minimality":
                _clean_vertex(index, w, forward, stats)
        elif d == d_old:
            store.set_at(w, i, q, d, c_old + c, flag)
            stats.entries_updated += 1
        # d > d_old is impossible: the pruning query is bounded by d_old.
    else:
        store.insert_sorted(w, q, d, c, flag)
        if inv is not None:
            inv[q].add(w)
        stats.entries_added += 1
        if strategy == "minimality":
            _clean_vertex(index, w, forward, stats)


# ---------------------------------------------------------------------------
# CLEAN-LABEL (Algorithm 8) — minimality strategy
# ---------------------------------------------------------------------------


def _clean_vertex(
    index: CSCIndex, w: int, forward: bool, stats: UpdateStats
) -> None:
    """Remove every redundant entry made observable by an update at ``w``.

    Forward case: scrub ``Lin(w)`` and out-labels of other vertices whose
    hub is ``w_in``; backward case: mirror image.
    """
    inv_in, inv_out = index.ensure_inverted()
    order = index.order
    if forward:
        store = index.store_in
        entries = store.entries(w)
        keep = []
        for entry in entries:
            q2, d2, _c2, _f2 = entry
            if d2 > index.qdist_in_in(order[q2], w):
                inv_in[q2].discard(w)
                stats.entries_removed += 1
            else:
                keep.append(entry)
        if len(keep) != len(entries):
            store.replace_vertex(w, keep)
        hub_w = index.pos[w]
        other = index.store_out
        for v in list(inv_out[hub_w]):
            i = other.hub_index(v, hub_w)
            if i < 0:
                inv_out[hub_w].discard(v)
                continue
            if other.decode(v, i)[1] > index.qdist_out_in(v, w):
                other.delete_at(v, i)
                inv_out[hub_w].discard(v)
                stats.entries_removed += 1
    else:
        store = index.store_out
        entries = store.entries(w)
        keep = []
        for entry in entries:
            q2, d2, _c2, _f2 = entry
            if d2 > index.qdist_out_in(w, order[q2]):
                inv_out[q2].discard(w)
                stats.entries_removed += 1
            else:
                keep.append(entry)
        if len(keep) != len(entries):
            store.replace_vertex(w, keep)
        hub_w = index.pos[w]
        other = index.store_in
        for v in list(inv_in[hub_w]):
            i = other.hub_index(v, hub_w)
            if i < 0:
                inv_in[hub_w].discard(v)
                continue
            if other.decode(v, i)[1] > index.qdist_in_in(w, v):
                other.delete_at(v, i)
                inv_in[hub_w].discard(v)
                stats.entries_removed += 1


# ---------------------------------------------------------------------------
# Decremental update (Section V-C: DECCNT)
# ---------------------------------------------------------------------------


def deletion_affected_hubs(
    graph: DiGraph,
    a: int,
    b: int,
    forward_dists: dict[int, list[float]] | None = None,
    reverse_dists: dict[int, list[float]] | None = None,
) -> tuple[set[int], set[int]]:
    """Affected hubs of deleting ``(a, b)``: the Section V-C distance
    conditions, evaluated on ``graph`` (which must still contain the
    edge).  Reads no label, so the answer is a function of the graph
    alone — which is what lets recovery decide a batch's rebuild
    fallback before building anything (see
    :func:`repro.core.batch.plan_batch`).

    Returns ``(aff_in, aff_out)`` as original-vertex sets: hubs whose
    in-side (forward) respectively out-side (backward) labels need a
    repair BFS once the edge is gone.

    ``forward_dists`` / ``reverse_dists`` are optional per-source BFS
    caches (``{source: bfs_distances(...)}``) for callers that evaluate
    many deletions against one frozen graph — the batch engine's edges
    often share endpoints, so the same BFS would otherwise rerun.
    """
    def _dist(source: int, reverse: bool) -> list[float]:
        cache = reverse_dists if reverse else forward_dists
        if cache is None:
            return bfs_distances(graph, source, reverse=reverse)
        dist = cache.get(source)
        if dist is None:
            dist = cache[source] = bfs_distances(
                graph, source, reverse=reverse
            )
        return dist

    d_to_a = _dist(a, True)
    d_to_b = _dist(b, True)
    d_from_a = _dist(a, False)
    d_from_b = _dist(b, False)
    aff_in = {
        v
        for v in graph.vertices()
        if d_to_b[v] is not INF and d_to_a[v] + 1 == d_to_b[v]
    }
    aff_out = {
        u
        for u in graph.vertices()
        if d_from_a[u] is not INF and d_from_b[u] + 1 == d_from_a[u]
    }
    # The one Gb pair the hop conditions cannot see is the cycle pair
    # (a_out, a_in): its distance is the cycle length through `a`, not a
    # plain 2d-1 hop distance.  If the deleted edge lies on a shortest
    # cycle through `a`, hub a_in's cycle entry must be repaired too.
    # The shortest cycle through `a` is one hop to an out-neighbour x
    # plus sd(x, a), so the reverse BFS from `a` already holds its
    # length; (a, b) lies on one iff b attains the minimum.
    if d_from_b[a] is not INF and d_from_b[a] == min(
        d_to_a[x] for x in graph.out_neighbors(a)
    ):
        aff_out.add(a)
    return aff_in, aff_out


def delete_edge(index: CSCIndex, a: int, b: int) -> UpdateStats:
    """Delete edge ``(a, b)`` from the graph and repair the index (DECCNT).

    Raises :class:`~repro.errors.EdgeNotFoundError` (before touching the
    index) if the edge is absent.
    """
    graph = index.graph
    if not graph.has_edge(a, b):
        from repro.errors import EdgeNotFoundError

        raise EdgeNotFoundError(a, b)
    # Pre-deletion hop BFSes give the affected-hub conditions exactly.
    aff_in, aff_out = deletion_affected_hubs(graph, a, b)
    graph.remove_edge(a, b)
    index.ensure_inverted()
    stats = UpdateStats("delete", (a, b))
    stats.details["affected_in_hubs"] = len(aff_in)
    stats.details["affected_out_hubs"] = len(aff_out)
    pos = index.pos
    for h in sorted(aff_in | aff_out, key=lambda v: pos[v]):
        stats.hubs_processed += 1
        if h in aff_in:
            _repair_hub(index, h, forward=True, stats=stats)
        if h in aff_out:
            _repair_hub(index, h, forward=False, stats=stats)
    return stats


def _repair_hub(
    index: CSCIndex | HPSPCIndex,
    h: int,
    forward: bool,
    stats: UpdateStats,
    csc: bool = True,
) -> list[int]:
    """Re-run the construction BFS for hub ``h`` on the current graph and
    replace the hub's label fingerprint (fresh upserts + stale removals),
    patching packed entries in place.  Returns the vertices whose stored
    labels actually changed (the parallel repair committer's write set).

    The BFS is :func:`repro.build.worker.hub_bfs` — same ``csc`` /
    ``forward`` parameters, same seeds, pruning and rank test — run over
    the live store's hub maps instead of tuple lists; ``csc=False``
    repairs an :class:`~repro.labeling.hpspc.HPSPCIndex`."""
    graph = index.graph
    pos = index.pos
    ph = pos[h]
    stats.repair_bfs_count += 1
    inv_in, inv_out = index.ensure_inverted()
    stop = -1
    seeds = [(h, 0, 1)]
    if forward:
        target = index.store_in
        inv = inv_in
        neighbors = graph.out_neighbors
        hub_dist = _canonical_shift_map(
            index.store_out, h, ph, 1 if csc else 0
        )
    else:
        target = index.store_out
        inv = inv_out
        neighbors = graph.in_neighbors
        hub_dist = _canonical_shift_map(index.store_in, h, ph, 0)
        if csc:
            stop = h
            seeds = [(u, 1, 1) for u in neighbors(h) if pos[u] >= ph]
    step = 2 if csc else 1

    target_maps = target.ensure_maps()
    hub_items = list(hub_dist.items())
    dist: dict[int, int] = {}
    cnt: dict[int, int] = {}
    queue: deque[int] = deque()
    for vertex, d0, c0 in seeds:
        dist[vertex] = d0
        cnt[vertex] = c0
        queue.append(vertex)
    fresh: dict[int, tuple[int, int, bool]] = {}
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        stats.vertices_visited += 1
        # Pruning query over canonical entries of strictly higher hubs:
        # iterate the hub-side canonical map (keys rank above ph), probe
        # w's maintained map, keep canonical matches only.
        d_via = UNREACHED
        get = target_maps[w].get
        for h2, hd in hub_items:
            t = get(h2)
            if t is not None and t[2]:
                d2 = hd + t[0]
                if d2 < d_via:
                    d_via = d2
        if d_via < d_w:
            continue
        fresh[w] = (d_w, cnt[w], d_via > d_w)
        if w == stop:
            continue  # couple-cycle prune
        d_next = d_w + step
        c_w = cnt[w]
        for u in neighbors(w):
            if pos[u] >= ph:
                d_u = dist.get(u)
                if d_u is None:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                elif d_u == d_next:
                    cnt[u] += c_w

    return _commit_fingerprint(target, inv, ph, fresh, stats)


def _commit_fingerprint(
    target: LabelStore,
    inv: list[set[int]],
    ph: int,
    fresh: dict[int, tuple[int, int, bool]],
    stats: UpdateStats,
) -> list[int]:
    """Replace hub ``ph``'s fingerprint on ``target`` with ``fresh``
    (upserts + stale removals via the inverted index), patching packed
    entries in place.  Shared by the serial repair above and the
    speculative commits of :mod:`repro.core.parallel_repair`.  Returns
    the vertices whose stored labels actually changed."""
    changed: list[int] = []
    stale = inv[ph] - fresh.keys()
    for w, (d, c, flag) in fresh.items():
        i = target.hub_index(w, ph)
        if i >= 0:
            if target.decode(w, i)[1:] != (d, c, flag):
                target.set_at(w, i, ph, d, c, flag)
                stats.entries_updated += 1
                changed.append(w)
        else:
            target.insert_sorted(w, ph, d, c, flag)
            inv[ph].add(w)
            stats.entries_added += 1
            changed.append(w)
    for w in stale:
        i = target.hub_index(w, ph)
        if i >= 0:
            target.delete_at(w, i)
            stats.entries_removed += 1
            changed.append(w)
        inv[ph].discard(w)
    return changed
