"""A frozen copy of the INCCNT kernel as it stood before the seed prune.

``oracle_insert_edge`` is :func:`repro.core.maintenance.insert_edge`
with the resumed BFS and UPDATE-LABEL written the original way: every
hub pass first derives the full and the canonical hub-side maps in
Python, then prunes every visited vertex, the seed included, by
iterating the full map and probing the vertex's map.
``test_inccnt_oracle.py`` checks that the live kernel writes the same
bytes and counts the same work.  CLEAN-LABEL is shared with the live
module: it is not part of what the oracle pins.
"""

from __future__ import annotations

from collections import deque

from repro.core.csc import CSCIndex
from repro.core.maintenance import UpdateStats, _check_strategy, _clean_vertex
from repro.labeling.labelstore import UNREACHED


def _canonical_shift_map(store, v, limit_hub, shift):
    maps = store._maps or store.ensure_maps()
    return {
        h: dc[0] + shift
        for h, dc in maps[v].items()
        if h < limit_hub and dc[2]
    }


def oracle_insert_edge(index, a, b, strategy="redundancy") -> UpdateStats:
    """INCCNT of ``(a, b)`` through the frozen kernel."""
    _check_strategy(strategy)
    index.graph.add_edge(a, b)
    index.ensure_inverted()
    stats = UpdateStats("insert", (a, b), strategy)
    csc = isinstance(index, CSCIndex)
    step = 2 if csc else 1
    pos = index.pos
    pa, pb = pos[a], pos[b]
    maps_in = index.store_in.ensure_maps()
    maps_out = index.store_out.ensure_maps()
    forward_seeds = {
        q: (dc[0] + step, dc[1]) for q, dc in maps_in[a].items() if q < pb
    }
    limit = pa + 1 if csc else pa
    backward_seeds = {
        q: (dc[0] + step, dc[1])
        for q, dc in maps_out[b].items()
        if q < limit
    }
    if csc and pb <= pa:
        backward_seeds[pb] = (1, 1)
    for q in sorted(forward_seeds.keys() | backward_seeds.keys()):
        stats.hubs_processed += 1
        seed = forward_seeds.get(q)
        if seed is not None:
            _resume_bfs(index, csc, q, b, seed, True, strategy, stats)
        seed = backward_seeds.get(q)
        if seed is not None:
            _resume_bfs(index, csc, q, a, seed, False, strategy, stats)
    return stats


def _resume_bfs(index, csc, q, start, seed, forward, strategy, stats):
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
            shift = 1
    else:
        store, side = index.store_out, index.store_in
        inv = index._inv_out
        neighbors = graph.in_neighbors
        if csc:
            floor = q
            stop = hub_vertex
    full_items = [
        (h2, dc[0] + shift)
        for h2, dc in side.ensure_maps()[hub_vertex].items()
        if h2 != q
    ]
    full_items.append((q, 0))
    canon = _canonical_shift_map(side, hub_vertex, q, shift)

    target_maps = store.ensure_maps()
    dist = {start: seed[0]}
    cnt = {start: seed[1]}
    queue = deque((start,))
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        stats.vertices_visited += 1
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
        if w == stop:
            continue
        d_next = d_w + step
        c_w = cnt[w]
        for u in neighbors(w):
            if pos[u] >= floor:
                d_u = dist.get(u)
                if d_u is None:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                elif d_u == d_next:
                    cnt[u] += c_w


def _update_entry(index, store, inv, w, q, d, c, hub_canon, forward,
                  strategy, stats):
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
