"""Dynamic maintenance for the generic HP-SPC index.

The paper's INCCNT/DECCNT (Section V) specialize dynamic 2-hop-cover
maintenance (Akiba et al. [30], D'angelo et al. [37], Qin et al. [38] in
the paper's related work) to the bipartite cycle-counting index.  This
module provides the *generic* digraph version for :class:`HPSPCIndex`, so
the HP-SPC baseline enjoys the same update model as CSC:

* :func:`insert_edge` — resumed counting BFS from each affected hub
  (hubs of ``Lin(a)`` forward from ``b``, hubs of ``Lout(b)`` backward
  from ``a``), seeded with the *label's* count (Theorem V.1), pruned by
  full-index distance queries, applying Algorithm 7's replace /
  accumulate / insert cases.
* :func:`delete_edge` — affected hubs are all vertices satisfying the
  distance conditions ``sd(v,a)+1 = sd(v,b)`` (in-side) and
  ``sd(b,u)+1 = sd(a,u)`` (out-side), computed exactly with four plain
  BFSes; each affected hub's label fingerprint is replaced by re-running
  the construction BFS (stale entries located through an inverted index)
  — CSC's own repair, :func:`repro.core.maintenance._repair_hub` with
  ``csc=False``.

Unlike the CSC variant there is no couple structure and no cycle-pair
special case — labels live on the original digraph with hop distances.
As in :mod:`repro.core.maintenance`, the repair passes patch the packed
label store in place and every pruning query is a merge-join over the
store's maintained hub maps (iterate the fixed hub-side map, probe the
visited vertex's map at C dict speed).
"""

from __future__ import annotations

from collections import deque

from repro.core.maintenance import (
    UpdateStats,
    _check_strategy,
    _repair_hub,
)
from repro.errors import EdgeNotFoundError
from repro.graph.traversal import INF, bfs_distances
from repro.labeling.hpspc import HPSPCIndex, UNREACHED
from repro.labeling.labelstore import LabelStore, join_min_dist

__all__ = ["insert_edge", "delete_edge"]


def insert_edge(
    index: HPSPCIndex, a: int, b: int, strategy: str = "redundancy"
) -> UpdateStats:
    """Insert edge ``(a, b)`` and incrementally maintain the HP-SPC index."""
    _check_strategy(strategy)
    index.graph.add_edge(a, b)
    index.ensure_inverted()
    stats = UpdateStats("insert", (a, b), strategy)
    pos = index.pos
    pa, pb = pos[a], pos[b]
    maps_in = index.store_in.ensure_maps()
    maps_out = index.store_out.ensure_maps()

    forward_seeds = {
        q: (dc[0] + 1, dc[1]) for q, dc in maps_in[a].items() if q < pb
    }
    backward_seeds = {
        q: (dc[0] + 1, dc[1]) for q, dc in maps_out[b].items() if q < pa
    }
    for q in sorted(set(forward_seeds) | set(backward_seeds)):
        stats.hubs_processed += 1
        seed = forward_seeds.get(q)
        if seed is not None:
            _pass(index, q, b, seed[0], seed[1], True, strategy, stats)
        seed = backward_seeds.get(q)
        if seed is not None:
            _pass(index, q, a, seed[0], seed[1], False, strategy, stats)
    return stats


def _pass(
    index: HPSPCIndex,
    q: int,
    start: int,
    d0: int,
    c0: int,
    forward: bool,
    strategy: str,
    stats: UpdateStats,
) -> None:
    """One resumed counting BFS from hub ``q`` (Algorithm 6, generic)."""
    graph = index.graph
    pos = index.pos
    hub_vertex = index.order[q]
    if forward:
        store = index.store_in
        side_store = index.store_out
        neighbors = graph.out_neighbors
    else:
        store = index.store_out
        side_store = index.store_in
        neighbors = graph.in_neighbors
    side_map = side_store.ensure_maps()[hub_vertex]
    full_items = [(h, dc[0]) for h, dc in side_map.items()]
    canon = {h: dc[0] for h, dc in side_map.items() if h < q and dc[2]}
    inv = index.ensure_inverted()[0 if forward else 1]
    target_maps = store.ensure_maps()

    dist: dict[int, int] = {start: d0}
    cnt: dict[int, int] = {start: c0}
    queue: deque[int] = deque((start,))
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        stats.vertices_visited += 1
        # Full-index pruning query: Lout(hub)'s hubs all rank at or above
        # q, so probing w's map covers exactly the seed's <=q prefix scan.
        d_query = UNREACHED
        get = target_maps[w].get
        for h2, od in full_items:
            t = get(h2)
            if t is not None:
                d2 = od + t[0]
                if d2 < d_query:
                    d_query = d2
        if d_w > d_query:
            continue
        _update_entry(
            index, store, inv, w, q, d_w, cnt[w], canon, forward,
            strategy, stats,
        )
        d_next = d_w + 1
        c_w = cnt[w]
        for u in neighbors(w):
            if pos[u] > q:
                d_u = dist.get(u)
                if d_u is None:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                elif d_u == d_next:
                    cnt[u] += c_w


def _update_entry(
    index: HPSPCIndex,
    store: LabelStore,
    inv: list[set[int]],
    w: int,
    q: int,
    d: int,
    c: int,
    hub_canon: dict[int, int],
    forward: bool,
    strategy: str,
    stats: UpdateStats,
) -> None:
    # Canonical distance via strictly higher canonical hubs (hub_canon's
    # keys all rank above q by construction), for the flag.
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
    else:
        store.insert_sorted(w, q, d, c, flag)
        inv[q].add(w)
        stats.entries_added += 1
        if strategy == "minimality":
            _clean_vertex(index, w, forward, stats)


def _query_pair(index: HPSPCIndex, s: int, t: int) -> int:
    """Full-label distance query (internal; avoids float inf)."""
    maps_o = index.store_out.ensure_maps()
    maps_i = index.store_in.ensure_maps()
    return join_min_dist(maps_o[s], maps_i[t])


def _clean_vertex(
    index: HPSPCIndex, w: int, forward: bool, stats: UpdateStats
) -> None:
    """Algorithm 8 on the generic index."""
    inv_in, inv_out = index.ensure_inverted()
    order = index.order
    if forward:
        store = index.store_in
        entries = store.entries(w)
        keep = []
        for entry in entries:
            q2, d2, _c2, _f2 = entry
            if d2 > _query_pair(index, order[q2], w):
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
            if other.decode(v, i)[1] > _query_pair(index, v, w):
                other.delete_at(v, i)
                inv_out[hub_w].discard(v)
                stats.entries_removed += 1
    else:
        store = index.store_out
        entries = store.entries(w)
        keep = []
        for entry in entries:
            q2, d2, _c2, _f2 = entry
            if d2 > _query_pair(index, w, order[q2]):
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
            if other.decode(v, i)[1] > _query_pair(index, w, v):
                other.delete_at(v, i)
                inv_in[hub_w].discard(v)
                stats.entries_removed += 1


def delete_edge(index: HPSPCIndex, a: int, b: int) -> UpdateStats:
    """Delete edge ``(a, b)`` and repair the HP-SPC index."""
    graph = index.graph
    if not graph.has_edge(a, b):
        raise EdgeNotFoundError(a, b)
    d_to_a = bfs_distances(graph, a, reverse=True)
    d_to_b = bfs_distances(graph, b, reverse=True)
    d_from_a = bfs_distances(graph, a)
    d_from_b = bfs_distances(graph, b)
    graph.remove_edge(a, b)
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
    index.ensure_inverted()
    stats = UpdateStats("delete", (a, b))
    stats.details["affected_in_hubs"] = len(aff_in)
    stats.details["affected_out_hubs"] = len(aff_out)
    pos = index.pos
    for h in sorted(aff_in | aff_out, key=lambda v: pos[v]):
        stats.hubs_processed += 1
        if h in aff_in:
            _repair_hub(index, h, True, stats, csc=False)
        if h in aff_out:
            _repair_hub(index, h, False, stats, csc=False)
    return stats
