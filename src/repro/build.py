"""Index construction: the pruned counting BFS and its rank-order loop.

:func:`hub_bfs` is the one pruned counting BFS of the repository: both
sides of one hub, for both index kinds (CSC over the implicit ``Gb``,
HP-SPC over ``G``).  :func:`build_label_tables` runs it for every hub
in rank order — Algorithm 3's outer loop — and is what
:meth:`CSCIndex.build <repro.core.csc.CSCIndex.build>` and
:meth:`HPSPCIndex.build <repro.labeling.hpspc.HPSPCIndex.build>` call.

The loop is sequential by design: each hub's BFS prunes against the
labels of every higher-ranked hub, so hub ``p`` cannot start before
hubs ``0..p-1`` have committed.  Deletion repair
(:func:`repro.core.maintenance._repair_hub`) re-runs the same BFS over
the packed stores' hub maps.  The kernel's output is pinned by the
Table II/III goldens and the cross-checks against the naive DFS and
BFS-CYCLE oracles.
"""

from __future__ import annotations

from collections import deque

from repro.labeling.labelstore import UNREACHED

__all__ = ["build_label_tables", "hub_bfs"]

Entry = tuple[int, int, int, bool]


def hub_bfs(graph, h, ph, pos, label_in, label_out, dist, cnt, csc,
            forward) -> None:
    """One pruned counting BFS of hub ``h`` (rank ``ph``), appending the
    hub's ``(rank, dist, count, canonical)`` entries to the tables in
    place — Algorithm 3's per-hub loop.

    ``forward`` generates in-labels (pruning joins the hub's ``Lout``
    against the dequeued vertex's ``Lin``), the backward side the
    mirror image.  ``csc`` selects the CSC index over the implicit
    ``Gb``: levels advance by 2 (couple edge plus one original edge),
    the forward ``hub_dist`` is the couple-shifted ``Lout(h_out)``, and
    the backward BFS starts from ``h``'s in-neighbours' ``out`` sides
    at distance 1 and stops at ``h``'s own couple after recording the
    cycle entry (Section IV-C rule (4)).  HP-SPC is the plain BFS on
    ``G``.  Every other seed is ``h`` itself at distance 0, so the one
    rank test ``pos[u] >= ph`` never re-admits it.

    Appending in place is safe: a vertex's labels are read only when it
    is dequeued, before its own append, and rank-``ph`` entries stop
    every pruning scan.  ``dist``/``cnt`` are ``UNREACHED``/0 scratch
    arrays, restored before returning.
    """
    if forward:
        hub_side, target = label_out[h], label_in
        neighbors = graph.out_neighbors
        shift = 1 if csc else 0
    else:
        hub_side, target = label_in[h], label_out
        neighbors = graph.in_neighbors
        shift = 0
    # Canonical distances from/to the hub via strictly higher hubs.
    hub_dist: dict[int, int] = {}
    for q, d, _c, canonical in hub_side:
        if q >= ph:
            break
        if canonical:
            hub_dist[q] = d + shift
    if csc and not forward:
        stop = h
        visited = [u for u in neighbors(h) if pos[u] >= ph]
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
        # Pruning query (Algorithm 3 line 13): canonical entries of
        # strictly higher-ranked hubs only.
        d_via = UNREACHED
        for q, dq, _cq, canonical in target[w]:
            if q >= ph:
                break
            if canonical:
                hd = hub_dist.get(q)
                if hd is not None and hd + dq < d_via:
                    d_via = hd + dq
        if d_via < d_w:
            continue
        target[w].append((ph, d_w, cnt[w], d_via > d_w))
        if w == stop:
            continue  # couple-cycle: cycle entry recorded, prune
        d_next = d_w + step
        c_w = cnt[w]
        for u in neighbors(w):
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


def build_label_tables(
    graph, order: list[int], pos: list[int], csc: bool
) -> tuple[list[list[Entry]], list[list[Entry]]]:
    """Construct ``(label_in, label_out)`` for ``graph`` under ``order``:
    both BFS sides of every hub, in rank order.  ``csc`` selects the
    CSC index, otherwise HP-SPC.  Rank order keeps every per-vertex
    list sorted by hub rank."""
    n = graph.n
    label_in: list[list[Entry]] = [[] for _ in range(n)]
    label_out: list[list[Entry]] = [[] for _ in range(n)]
    dist = [UNREACHED] * n
    cnt = [0] * n
    for p, h in enumerate(order):
        hub_bfs(graph, h, p, pos, label_in, label_out, dist, cnt, csc, True)
        hub_bfs(graph, h, p, pos, label_in, label_out, dist, cnt, csc,
                False)
    return label_in, label_out
