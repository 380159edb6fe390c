"""Dynamic maintenance of the CSC and HP-SPC indexes (paper Section V).

The paper maintains only CSC; the same entry points maintain the HP-SPC
baseline, so both index kinds share one resumed INCCNT BFS
(:func:`_resume_bfs`), one UPDATE-LABEL, one CLEAN-LABEL and one DECCNT
repair (:func:`_repair_hub`, the construction kernel
:func:`repro.build.hub_bfs` over the live store).  The text below is
written for CSC; `What differs by index kind`_ lists every step where
HP-SPC, a plain 2-hop cover on ``G`` with hop distances, departs.

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
entries in place.  Every pruning query joins the hub-side map with the
visited vertex's map, both the store's maintained hub maps.  Most
resumed BFSes visit only their seed — on a feed where new edges end at
accounts without out-edges, nearly all of them — so the seed's query
intersects the two maps' keys in C and reads only the common hubs, with
no per-hub setup.  Once the BFS expands past its seed it derives the
shifted hub-side list once and iterates it, probing each vertex's map at
C dict speed: there most of the hub's hubs are common to the vertex,
so an intersection per vertex would cost more.  The canonical-flag
distance is computed only for entries that get written, and
UPDATE-LABEL reuses the entry of ``q`` the query already read.
DECCNT's repair BFS iterates its hub-side canonical map the same way.

Two strategies (Section V-B):

* ``"redundancy"`` (default) — dominated stale entries stay; queries remain
  correct because a stale pair-sum always exceeds the true minimum.
* ``"minimality"`` — every replace/insert triggers CLEAN-LABEL
  (Algorithm 8) over the touched vertex's labels and the inverted indexes,
  restoring Theorem V.3 minimality at much higher cost (Figure 11).

The inverted indexes are built when first read, by the first
minimality insert or deletion repair after a build, load or rebuild.
Redundancy inserts keep them exact once they exist but never build
them: nothing on that path reads them.

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

What differs by index kind
--------------------------
The kind is read off the index (``isinstance(index, CSCIndex)``); no
caller passes it.  HP-SPC departs from the CSC text above in five places
and nowhere else:

* seeds — an HP-SPC seed is the label entry plus one hop; CSC adds the
  couple edge too, seeds hub ``b_in`` itself at ``(1, 1)``, and admits
  hub ``a_in`` (whose cycle entry lives in ``Lout(a_out)``) backward;
* step — the BFS level advances by 2 on ``Gb`` (couple edge plus one
  original edge), by 1 on ``G``;
* rank floor — a neighbour ``u`` is admitted when ``pos[u] >= floor``:
  ``q + 1`` everywhere except CSC's backward side, where it is ``q``
  (``q_out`` ranks below hub ``q_in``);
* couple-cycle stop — CSC's backward side records ``q``'s cycle entry
  at ``q`` and stops there; deletion adds ``a`` to the out-side hubs for
  the same pair.  HP-SPC has neither;
* distance pair — CLEAN-LABEL's redundancy test asks ``qdist_in_in`` /
  ``qdist_out_in`` on CSC and a plain label join on HP-SPC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.csc import CSCIndex
from repro.errors import ConfigurationError, EdgeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.traversal import INF, bfs_distances
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.labelstore import UNREACHED, LabelStore, join_min_dist

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
    index: CSCIndex | HPSPCIndex,
    a: int,
    b: int,
    strategy: str = "redundancy",
) -> UpdateStats:
    """Insert edge ``(a, b)`` into the graph and update the index (INCCNT).

    ``index`` is a :class:`~repro.core.csc.CSCIndex` or an
    :class:`~repro.labeling.hpspc.HPSPCIndex`.  Raises
    :class:`~repro.errors.EdgeExistsError` (before touching the index) if
    the edge is already present.
    """
    _check_strategy(strategy)
    index.graph.add_edge(a, b)
    if strategy == "minimality":
        # CLEAN-LABEL reads the inverted index; build it before any pass
        # so no pass holds a stale ``None`` while a clean builds it.
        index.ensure_inverted()
    stats = UpdateStats("insert", (a, b), strategy)
    csc = isinstance(index, CSCIndex)
    step = 2 if csc else 1
    pos = index.pos
    pa, pb = pos[a], pos[b]
    maps_in = index.store_in.ensure_maps()
    maps_out = index.store_out.ensure_maps()

    # Seeds (Theorem V.1): a label entry's (dist, count) carried across
    # the new edge.  CSC's stored Lin(a_in) / Lout(b_out) sit one couple
    # edge further from a_out / b_in, hence the Gb step.
    forward_seeds = {
        q: (dc[0] + step, dc[1]) for q, dc in maps_in[a].items() if q < pb
    }
    # CSC also seeds hub a_in itself: it owns a_out's cycle entry.
    limit = pa + 1 if csc else pa
    backward_seeds = {
        q: (dc[0] + step, dc[1])
        for q, dc in maps_out[b].items()
        if q < limit
    }
    if csc and pb <= pa:
        backward_seeds[pb] = (1, 1)  # hub b_in itself: a_out -> b_in

    for q in sorted(forward_seeds.keys() | backward_seeds.keys()):
        stats.hubs_processed += 1
        seed = forward_seeds.get(q)
        if seed is not None:
            _resume_bfs(index, csc, q, b, seed, True, strategy, stats)
        seed = backward_seeds.get(q)
        if seed is not None:
            _resume_bfs(index, csc, q, a, seed, False, strategy, stats)
    return stats


def _resume_bfs(
    index: CSCIndex | HPSPCIndex,
    csc: bool,
    q: int,
    start: int,
    seed: tuple[int, int],
    forward: bool,
    strategy: str,
    stats: UpdateStats,
) -> None:
    """Algorithm 6 (FORWARD-PASS) and its backward mirror: the resumed
    counting BFS of hub ``q`` from ``start``, updating in-labels
    (``forward``) or out-labels below ``q``.

    The per-kind constants are set once, as in
    :func:`repro.build.hub_bfs`: the level step, the rank floor a
    neighbour must reach, the couple-cycle stop vertex and the
    hub-side map's couple shift.

    Most resumed BFSes never leave their seed, so the seed does no
    per-hub setup: its pruning query intersects the hub-side map with
    the seed's map in C and visits only the common hubs.  The hub-side
    lists the later vertices iterate are derived only once the BFS
    expands past the seed — there an intersection would cost more,
    since most of a hub's hubs are common to the vertex it visits."""
    graph = index.graph
    pos = index.pos
    hub_vertex = index.order[q]
    step = 2 if csc else 1
    floor = q + 1
    stop = -1
    shift = 0
    if forward:
        store, side = index.store_in, index.store_out
        inv = index._inv_in
        neighbors = graph.out_neighbors
        if csc:
            shift = 1  # Lout(q_in) is Lout(q_out) one couple edge on
    else:
        store, side = index.store_out, index.store_in
        inv = index._inv_out
        neighbors = graph.in_neighbors
        if csc:
            floor = q  # q_out ranks below hub q_in, so q is admitted
            stop = hub_vertex
    # The hub sits at distance 0 of itself; on CSC's forward side that
    # replaces Lout(q_out)'s cycle entry, so q's own entry on the hub
    # side is never read and the query's q term is w's entry of q.
    hub_map = side.ensure_maps()[hub_vertex]
    target_maps = store.ensure_maps()

    # The seed (Algorithm 6 at `start`), pruned over the common hubs.
    d_w, c_w = seed
    stats.vertices_visited += 1
    w_map = target_maps[start]
    old = w_map.get(q)
    d_query = UNREACHED if old is None else old[0]
    common = hub_map.keys() & w_map.keys()
    common.discard(q)
    for h2 in common:
        d2 = hub_map[h2][0] + shift + w_map[h2][0]
        if d2 < d_query:
            d_query = d2
    if d_w > d_query:
        return  # Case 1: not on a new shortest path
    d_canon = UNREACHED
    for h2 in common:
        hd = hub_map[h2]
        wd = w_map[h2]
        if h2 < q and hd[2] and wd[2]:
            d2 = hd[0] + shift + wd[0]
            if d2 < d_canon:
                d_canon = d2
    _update_entry(
        index, store, inv, start, q, d_w, c_w, d_canon, old, forward,
        strategy, stats,
    )
    if start == stop:
        return  # couple-cycle: cycle entry updated, prune
    queue: deque[int] = deque(u for u in neighbors(start) if pos[u] >= floor)
    if not queue:
        return
    d_next = d_w + step
    dist: dict[int, int] = {start: d_w}
    cnt: dict[int, int] = {start: c_w}
    for u in queue:
        dist[u] = d_next
        cnt[u] = c_w

    # Past the seed: iterate the hub side, probe each vertex's map.
    full_items = [
        (h2, dc[0] + shift) for h2, dc in hub_map.items() if h2 != q
    ]
    canon_items = [
        (h2, dc[0] + shift) for h2, dc in hub_map.items()
        if h2 < q and dc[2]
    ]
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        stats.vertices_visited += 1
        # Full-index pruning query (Algorithm 6).
        get = target_maps[w].get
        old = get(q)
        d_query = UNREACHED if old is None else old[0]
        for h2, od in full_items:
            t = get(h2)
            if t is not None:
                d2 = od + t[0]
                if d2 < d_query:
                    d_query = d2
        if d_w > d_query:
            continue  # Case 1: not on a new shortest path
        # Canonical distance via strictly higher canonical hubs.
        d_canon = UNREACHED
        for h2, od in canon_items:
            t = get(h2)
            if t is not None and t[2]:
                d2 = od + t[0]
                if d2 < d_canon:
                    d_canon = d2
        c_w = cnt[w]
        _update_entry(
            index, store, inv, w, q, d_w, c_w, d_canon, old, forward,
            strategy, stats,
        )
        if w == stop:
            continue  # couple-cycle: cycle entry updated, prune
        d_next = d_w + step
        for u in neighbors(w):
            if pos[u] >= floor:
                d_u = dist.get(u)
                if d_u is None:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                elif d_u == d_next:
                    cnt[u] += c_w


def _update_entry(
    index: CSCIndex | HPSPCIndex,
    store: LabelStore,
    inv: list[set[int]] | None,
    w: int,
    q: int,
    d: int,
    c: int,
    d_canon: int,
    old: tuple[int, int, bool] | None,
    forward: bool,
    strategy: str,
    stats: UpdateStats,
) -> None:
    """Algorithm 7 (UPDATE-LABEL) — patches the packed entry in place.

    ``d_canon`` is ``w``'s distance to the hub via strictly higher
    canonical hubs, so the entry is canonical when ``d < d_canon``;
    ``old`` is ``w``'s current ``(dist, count, canonical)`` entry of
    hub ``q`` as the pruning query read it from the map, or ``None``.
    ``inv`` is the side's inverted index, or ``None`` while it is not
    built: only CLEAN-LABEL and deletion repair read it, and both build
    it from the store when they first need it."""
    flag = d_canon > d
    if old is None:
        store.insert_sorted(w, q, d, c, flag)
        if inv is not None:
            inv[q].add(w)
        stats.entries_added += 1
        if strategy == "minimality":
            _clean_vertex(index, w, forward, stats)
        return
    d_old = old[0]
    if d < d_old:
        store.set_at(w, store.hub_index(w, q), q, d, c, flag)
        stats.entries_updated += 1
        if strategy == "minimality":
            _clean_vertex(index, w, forward, stats)
    elif d == d_old:
        store.set_at(w, store.hub_index(w, q), q, d, old[1] + c, flag)
        stats.entries_updated += 1
    # d > d_old is impossible: the pruning query is bounded by d_old.


# ---------------------------------------------------------------------------
# CLEAN-LABEL (Algorithm 8) — minimality strategy
# ---------------------------------------------------------------------------


def _clean_vertex(
    index: CSCIndex | HPSPCIndex, w: int, forward: bool, stats: UpdateStats
) -> None:
    """Remove every redundant entry made observable by an update at ``w``.

    Forward case: scrub ``Lin(w)`` and out-labels of other vertices whose
    hub is ``w`` (``w_in``); backward case: mirror image.  An entry is
    redundant when it exceeds the full-index distance of its pair.
    """
    if isinstance(index, CSCIndex):
        dist_in, dist_out = index.qdist_in_in, index.qdist_out_in
    else:
        maps_in = index.store_in.ensure_maps()
        maps_out = index.store_out.ensure_maps()

        def dist_in(s: int, t: int) -> int:
            return join_min_dist(maps_out[s], maps_in[t])

        dist_out = dist_in
    inv_in, inv_out = index.ensure_inverted()
    if forward:
        store, inv, own_dist = index.store_in, inv_in, dist_in
        other, other_inv, other_dist = index.store_out, inv_out, dist_out
    else:
        store, inv, own_dist = index.store_out, inv_out, dist_out
        other, other_inv, other_dist = index.store_in, inv_in, dist_in

    def pair_dist(query, x: int) -> int:
        # Every pair runs from x to w forward, from w to x backward.
        return query(x, w) if forward else query(w, x)

    order = index.order
    entries = store.entries(w)
    keep = []
    for entry in entries:
        q2 = entry[0]
        if entry[1] > pair_dist(own_dist, order[q2]):
            inv[q2].discard(w)
            stats.entries_removed += 1
        else:
            keep.append(entry)
    if len(keep) != len(entries):
        store.replace_vertex(w, keep)
    hub_w = index.pos[w]
    for v in list(other_inv[hub_w]):
        i = other.hub_index(v, hub_w)
        if i < 0:
            other_inv[hub_w].discard(v)
            continue
        if other.decode(v, i)[1] > pair_dist(other_dist, v):
            other.delete_at(v, i)
            other_inv[hub_w].discard(v)
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


def delete_edge(
    index: CSCIndex | HPSPCIndex, a: int, b: int
) -> UpdateStats:
    """Delete edge ``(a, b)`` from the graph and repair the index (DECCNT).

    ``index`` is a :class:`~repro.core.csc.CSCIndex` or an
    :class:`~repro.labeling.hpspc.HPSPCIndex`.  Raises
    :class:`~repro.errors.EdgeNotFoundError` (before touching the index)
    if the edge is absent.
    """
    graph = index.graph
    if not graph.has_edge(a, b):
        raise EdgeNotFoundError(a, b)
    # Pre-deletion hop BFSes give the affected-hub conditions exactly.
    aff_in, aff_out = deletion_affected_hubs(graph, a, b)
    if not isinstance(index, CSCIndex):
        # No couple-cycle pair on G: the hop conditions never hold for
        # `a` itself, so this drops exactly the CSC-only cycle term.
        aff_out.discard(a)
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
) -> None:
    """Re-run the construction BFS for hub ``h`` on the current graph and
    replace the hub's label fingerprint (fresh upserts + stale removals),
    patching packed entries in place.

    The BFS is :func:`repro.build.hub_bfs` — same ``csc`` /
    ``forward`` switches, same seeds, pruning and rank test — run over
    the live store's hub maps instead of tuple lists."""
    csc = isinstance(index, CSCIndex)
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

    # Replace the hub's fingerprint: upserts, then stale removals via
    # the inverted index.
    stale = inv[ph] - fresh.keys()
    for w, (d, c, flag) in fresh.items():
        i = target.hub_index(w, ph)
        if i >= 0:
            if target.decode(w, i)[1:] != (d, c, flag):
                target.set_at(w, i, ph, d, c, flag)
                stats.entries_updated += 1
        else:
            target.insert_sorted(w, ph, d, c, flag)
            inv[ph].add(w)
            stats.entries_added += 1
    for w in stale:
        i = target.hub_index(w, ph)
        if i >= 0:
            target.delete_at(w, i)
            stats.entries_removed += 1
        inv[ph].discard(w)
