"""A frozen copy of the construction kernel as it stood before the
level-synchronous BFS.

``oracle_hub_bfs`` is :func:`repro.build.hub_bfs` written the original
way: one FIFO queue for the whole BFS, and a pruning query that
intersects the dequeued vertex's canonical map with the hub's *whole*
canonical map, CSC's forward side through a per-hub couple-shifted copy
(``{q: d + 1}``).  ``oracle_flat_tables`` runs it in rank order, as
:func:`repro.build.build_label_tables` does, and returns the flat
per-vertex tables before packing.  ``test_build_oracle.py`` checks that
the live kernel writes the same tables and the same bytes.
"""

from __future__ import annotations

from collections import deque

from repro.labeling.labelstore import UNREACHED


def oracle_hub_bfs(graph, h, ph, pos, label_in, label_out, canon_in,
                   canon_out, dist, cnt, csc, forward) -> None:
    """One pruned counting BFS of hub ``h`` through the frozen kernel."""
    if forward:
        target, canon_target = label_in, canon_in
        hub_dist = canon_out[h]
        if csc:
            hub_dist = {q: d + 1 for q, d in hub_dist.items()}
    else:
        target, canon_target = label_out, canon_out
        hub_dist = canon_in[h]
        if ph in hub_dist:
            hub_dist = hub_dist.copy()
            del hub_dist[ph]
    hub_keys = hub_dist.keys()
    adjacency = graph.adjacency(forward)
    if csc and not forward:
        stop = h
        visited = [u for u in adjacency[h] if pos[u] >= ph]
        for u in visited:
            dist[u] = 1
            cnt[u] = 1
    else:
        stop = -1
        visited = [h]
        dist[h] = 0
        cnt[h] = 1
    step = 2 if csc else 1
    queue: deque[int] = deque(visited)
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        canon_w = canon_target[w]
        d_via = UNREACHED
        for q in hub_keys & canon_w.keys():
            d = hub_dist[q] + canon_w[q]
            if d < d_via:
                d_via = d
        if d_via < d_w:
            continue
        canonical = d_via > d_w
        target[w] += (ph, d_w, cnt[w], canonical)
        if canonical:
            canon_w[ph] = d_w
        if w == stop:
            continue
        d_next = d_w + step
        c_w = cnt[w]
        for u in adjacency[w]:
            if dist[u] == UNREACHED:
                if pos[u] >= ph:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                    visited.append(u)
            elif dist[u] == d_next:
                cnt[u] += c_w
    for w in visited:
        dist[w] = UNREACHED
        cnt[w] = 0


def oracle_flat_tables(graph, order, pos, csc, kernel=oracle_hub_bfs):
    """``(label_in, label_out)`` flat tables, four items per entry, from
    ``kernel`` run for both sides of every hub in rank order."""
    n = graph.n
    label_in: list[list] = [[] for _ in range(n)]
    label_out: list[list] = [[] for _ in range(n)]
    canon_in: list[dict[int, int]] = [{} for _ in range(n)]
    canon_out: list[dict[int, int]] = [{} for _ in range(n)]
    dist = [UNREACHED] * n
    cnt = [0] * n
    for p, h in enumerate(order):
        for forward in (True, False):
            kernel(graph, h, p, pos, label_in, label_out, canon_in,
                   canon_out, dist, cnt, csc, forward)
    assert dist == [UNREACHED] * n and cnt == [0] * n
    return label_in, label_out
