"""Index construction: the pruned counting BFS and its rank-order loop.

:func:`hub_bfs` is the one pruned counting BFS of the repository: both
sides of one hub, for both index kinds (CSC over the implicit ``Gb``,
HP-SPC over ``G``).  It runs level by level, and each level's pruning
queries join only the hub's label entries near enough to prune at that
distance.  :func:`build_label_tables` runs it for every hub
in rank order — Algorithm 3's outer loop — and is what
:meth:`CSCIndex.build <repro.core.csc.CSCIndex.build>` and
:meth:`HPSPCIndex.build <repro.labeling.hpspc.HPSPCIndex.build>` call.

The loop is sequential by design: each hub's BFS prunes against the
labels of every higher-ranked hub, so hub ``p`` cannot start before
hubs ``0..p-1`` have committed.  Deletion repair
(:func:`repro.core.maintenance._repair_hub`) re-runs the same BFS, in
its own loop, over the packed stores' hub maps; next to it, the
INCCNT kernel (:func:`repro.core.maintenance._resume_bfs`) resumes it
from a new edge's far end with the same per-kind step, rank floor and
couple-cycle stop, for both index kinds.  The kernel's output is
pinned by the Table II/III goldens, the cross-checks against the naive
DFS and BFS-CYCLE oracles, the byte-level build digests of
``tests/core/test_build_digest.py`` and the frozen queue-based kernel
of ``tests/properties/build_oracle.py``; ``benchmarks/bench_build.py``
records its speed (``BENCH_build.json``, label entries per second,
fresh and with the previous index resident).
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager

from repro.labeling.labelstore import UNREACHED, LabelStore

__all__ = ["build_label_tables", "hub_bfs", "paused_gc"]


@contextmanager
def paused_gc() -> Iterator[None]:
    """Run the body with the cyclic garbage collector paused, and hand
    the caller's collector state back unchanged.

    Construction and crash recovery allocate label containers by the
    hundred thousand, none of them in a reference cycle, so every
    collection the collector would run meanwhile scans a growing heap
    and frees nothing.

    * ``gc.disable()`` is process-wide: while a pause lasts, no thread's
      cyclic garbage is collected.
    * The state is saved on entry and restored on exit, also when the
      body raises.  Overlapping pauses from two threads still end with
      the collector enabled if it was enabled before: the pause that
      found it enabled re-enables it when it ends, the one that found it
      disabled leaves it alone.  If the former ends first, the other
      pause is cut short; nothing is left disabled.
    * The young generation the pause leaves behind is collected once, on
      the next allocation after the pause ends: one pass over everything
      the pause allocated, instead of the hundreds of young, middle and
      full collections the allocations would have triggered.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def hub_bfs(graph, h, ph, pos, label_in, label_out, canon_in, canon_out,
            dist, cnt, csc, forward) -> None:
    """One pruned counting BFS of hub ``h`` (rank ``ph``), appending the
    hub's entries to the tables in place — Algorithm 3's per-hub loop.
    Each vertex's table is one flat list, four items per entry:
    ``rank, dist, count, canonical``.  Flat lists of ints hold no
    per-entry object that the cyclic GC tracks, so freeing them after
    packing is cheap.

    ``forward`` generates in-labels (pruning joins the hub's ``Lout``
    against the visited vertex's ``Lin``), the backward side the
    mirror image.  ``csc`` selects the CSC index over the implicit
    ``Gb``: levels advance by 2 (couple edge plus one original edge),
    the forward hub side is ``Lout(h_out)`` one couple edge on, and
    the backward BFS starts from ``h``'s in-neighbours' ``out`` sides
    at distance 1 and stops at ``h``'s own couple after recording the
    cycle entry (Section IV-C rule (4)).  HP-SPC is the plain BFS on
    ``G``.  Every other seed is ``h`` itself at distance 0, so the one
    rank test ``pos[u] >= ph`` never re-admits it.

    The BFS runs level by level: one frontier list per distance
    ``d_w``, so a vertex's count is final when its level starts.
    ``canon_in``/``canon_out`` hold, per vertex, a ``{rank: dist}`` map
    of that table's canonical entries only; the BFS adds to them as it
    appends.  The pruning query (Algorithm 3 line 13) intersects a hub
    map with the visited vertex's map in C (``keys() & keys()``) and
    visits only the common hubs in Python.  It needs only to know
    whether some canonical pair sum falls below ``d_w`` (prune) or
    equals it (not canonical).  Every key of the visited vertex's map is
    a strictly higher hub (rank ``< ph``) when the query runs: tables
    grow in rank order, and a vertex is visited at most once per side
    and queried before its own append.  So the backward side's own
    rank-``ph`` hub entry never meets a vertex key, no key names the
    visited vertex (rank ``>= ph``), and every vertex-side distance is at
    least 1: a hub entry at ``lim = d_w - shift`` or farther can decide
    neither.  Each level joins only the hub's entries with
    ``dist < lim``, a filtered dict rebuilt once per level, and stops at
    the first sum below ``lim``.  ``shift`` is CSC's forward couple edge,
    folded into the bound instead of added to every hub entry.
    ``dist``/``cnt`` are ``UNREACHED``/0 scratch arrays, restored
    before returning.
    """
    if forward:
        target, canon_target = label_in, canon_in
        hub_map = canon_out[h]
    else:
        target, canon_target = label_out, canon_out
        hub_map = canon_in[h]
    shift = 1 if csc and forward else 0
    adjacency = graph.adjacency(forward)
    if csc and not forward:
        stop = h
        frontier = [u for u in adjacency[h] if pos[u] >= ph]
        d_w = 1
    else:
        stop = -1
        frontier = [h]
        d_w = 0
    for u in frontier:
        dist[u] = d_w
        cnt[u] = 1
    visited = list(frontier)
    step = 2 if csc else 1
    while frontier:
        lim = d_w - shift
        level = {q: d for q, d in hub_map.items() if d < lim}
        level_keys = level.keys()
        d_next = d_w + step
        reached = []
        for w in frontier:
            # Pruning query (Algorithm 3 line 13) over the common hubs.
            canon_w = canon_target[w]
            d_via = UNREACHED
            for q in level_keys & canon_w.keys():
                d = level[q] + canon_w[q]
                if d < d_via:
                    d_via = d
                    if d < lim:
                        break  # a shorter witness prunes w
            if d_via < lim:
                continue
            canonical = d_via > lim
            target[w] += (ph, d_w, cnt[w], canonical)
            if canonical:
                canon_w[ph] = d_w
            if w == stop:
                continue  # couple-cycle: cycle entry recorded, prune
            c_w = cnt[w]
            for u in adjacency[w]:
                d_u = dist[u]
                if d_u == UNREACHED:
                    if pos[u] >= ph:
                        dist[u] = d_next
                        cnt[u] = c_w
                        reached.append(u)
                elif d_u == d_next:
                    cnt[u] += c_w
        visited += reached
        frontier = reached
        d_w = d_next
    for w in visited:
        dist[w] = UNREACHED
        cnt[w] = 0


def build_label_tables(
    graph, order: list[int], pos: list[int], csc: bool
) -> tuple[LabelStore, LabelStore]:
    """Construct the packed ``(Lin, Lout)`` stores for ``graph`` under
    ``order``: both BFS sides of every hub, in rank order, then one
    packing pass per vertex (:meth:`LabelStore.from_flat
    <repro.labeling.labelstore.LabelStore.from_flat>`).  ``csc`` selects
    the CSC index, otherwise HP-SPC.  Rank order keeps every per-vertex
    list sorted by hub rank.

    The build-time canonical maps :func:`hub_bfs` prunes against (one
    ``{rank: dist}`` dict per vertex and side) are dropped before
    packing.  Everything runs with the cyclic GC paused
    (:func:`paused_gc`): the build allocates only acyclic containers,
    so a collection would free nothing."""
    n = graph.n
    with paused_gc():
        label_in: list[list] = [[] for _ in range(n)]
        label_out: list[list] = [[] for _ in range(n)]
        canon_in: list[dict[int, int]] = [{} for _ in range(n)]
        canon_out: list[dict[int, int]] = [{} for _ in range(n)]
        dist = [UNREACHED] * n
        cnt = [0] * n
        for p, h in enumerate(order):
            hub_bfs(graph, h, p, pos, label_in, label_out, canon_in,
                    canon_out, dist, cnt, csc, True)
            hub_bfs(graph, h, p, pos, label_in, label_out, canon_in,
                    canon_out, dist, cnt, csc, False)
        del canon_in, canon_out
        return (LabelStore.from_flat(_drain(label_in)),
                LabelStore.from_flat(_drain(label_out)))


def _drain(flats: list[list]) -> Iterator[list]:
    """Hand out each vertex's flat list and drop ours, so packing frees
    every list once it is packed instead of holding them all until the
    last vertex: on perfbench's screen graph that takes the build's
    allocation peak (``tracemalloc``) from 18.2 to 13.5 MB."""
    for v in range(len(flats)):
        flat = flats[v]
        flats[v] = None
        yield flat
