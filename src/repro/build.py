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
(:func:`repro.core.maintenance._repair_hub`) re-runs the same BFS, in
its own loop, over the packed stores' hub maps.  The kernel's output is
pinned by the Table II/III goldens, the cross-checks against the naive
DFS and BFS-CYCLE oracles and the byte-level build digests of
``tests/core/test_build_digest.py``; ``benchmarks/bench_build.py``
records its speed (``BENCH_build.json``, label entries per second).
"""

from __future__ import annotations

from collections import deque

from repro.labeling.labelstore import UNREACHED

__all__ = ["build_label_tables", "hub_bfs"]

Entry = tuple[int, int, int, bool]


def hub_bfs(graph, h, ph, pos, label_in, label_out, canon_in, canon_out,
            dist, cnt, csc, forward) -> None:
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

    ``canon_in``/``canon_out`` hold, per vertex, a ``{rank: dist}`` map
    of that table's canonical entries only; the BFS adds to them as it
    appends.  The pruning query (Algorithm 3 line 13) intersects the
    hub's map with the dequeued vertex's map in C (``keys() & keys()``)
    and visits only the common hubs in Python, instead of scanning every
    entry of the vertex's label.  Every key of both maps is a strictly
    higher hub (rank ``< ph``) when the query runs: tables grow in rank
    order, a vertex is dequeued at most once per side and queried before
    its own append, and the backward side drops the hub's own
    rank-``ph`` in-entry from its map.
    ``dist``/``cnt`` are ``UNREACHED``/0 scratch arrays, restored
    before returning.
    """
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
        # Pruning query (Algorithm 3 line 13) over the common hubs.
        canon_w = canon_target[w]
        d_via = UNREACHED
        for q in hub_keys & canon_w.keys():
            d = hub_dist[q] + canon_w[q]
            if d < d_via:
                d_via = d
        if d_via < d_w:
            continue
        canonical = d_via > d_w
        target[w].append((ph, d_w, cnt[w], canonical))
        if canonical:
            canon_w[ph] = d_w
        if w == stop:
            continue  # couple-cycle: cycle entry recorded, prune
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


def build_label_tables(
    graph, order: list[int], pos: list[int], csc: bool
) -> tuple[list[list[Entry]], list[list[Entry]]]:
    """Construct ``(label_in, label_out)`` for ``graph`` under ``order``:
    both BFS sides of every hub, in rank order.  ``csc`` selects the
    CSC index, otherwise HP-SPC.  Rank order keeps every per-vertex
    list sorted by hub rank.

    The build-time canonical maps :func:`hub_bfs` prunes against (one
    ``{rank: dist}`` dict per vertex and side) live only for the
    duration of this call; the returned tuple tables carry every
    entry, canonical flag included."""
    n = graph.n
    label_in: list[list[Entry]] = [[] for _ in range(n)]
    label_out: list[list[Entry]] = [[] for _ in range(n)]
    canon_in: list[dict[int, int]] = [{} for _ in range(n)]
    canon_out: list[dict[int, int]] = [{} for _ in range(n)]
    dist = [UNREACHED] * n
    cnt = [0] * n
    for p, h in enumerate(order):
        hub_bfs(graph, h, p, pos, label_in, label_out, canon_in, canon_out,
                dist, cnt, csc, True)
        hub_bfs(graph, h, p, pos, label_in, label_out, canon_in, canon_out,
                dist, cnt, csc, False)
    return label_in, label_out
