"""Parallel BATCH-DECCNT: speculative per-hub fingerprint repairs.

The deletion side of :func:`repro.core.batch.apply_batch` runs one
construction BFS per affected hub *side*, in descending rank order.
Each of those BFSes is independent of the others except through the
label entries earlier repairs may have changed — the exact structure
the build pool exploits for construction — so this module farms the
repair BFSes out to the same long-lived forkserver pool
(:mod:`repro.build.parallel`) and commits the results in serial order,
bit-identical to the serial repair loop for any worker count.

The hand-off
------------
Workers are (re)initialized with the post-deletion graph and then
receive the *frozen pre-repair* label tables as two packed ``RPLS``
blobs (the same one-memcpy-per-vertex container the build broadcasts
use).  Each worker runs its share of ``(side, hub)`` repair tasks with
the build's kernel :func:`~repro.build.worker.hub_bfs` and ships back,
per task, the fresh fingerprint entries *and the list of vertices the
BFS dequeued*.  That kernel and the serial :func:`_repair_hub` are two
representations of one BFS — over tuple lists, over the live store's
hub maps — and the parallel-repair differential suite compares them.

The conflict rule
-----------------
Unlike construction waves (where every in-flight hub outranks every
write), a repaired hub's read set can interleave arbitrarily with other
repaired hubs' writes, so validity is decided per side at commit time
from its actual read set.  The forward repair of hub ``h`` (rank ``p``)
reads exactly

* ``h``'s canonical **out**-entries of rank ``< p`` (its ``hub_dist``
  map), and
* the **in**-labels of every vertex the BFS dequeued (each pruning
  query probes only the dequeued vertex),

so the speculative result is taken verbatim iff no committed repair has
changed ``h``'s out-labels and no dequeued vertex's in-labels changed;
the backward side is the mirror image.  On a hit the side is re-run
serially against the authoritative store — at that point exactly the
serial engine's state, so conflicts cost one extra BFS, never
correctness.  A hub's own forward commit cannot invalidate its backward
side structurally (rank-``p`` writes are invisible to a ``< p`` read),
but the rule is evaluated conservatively on whole vertices, so a false
positive merely triggers a redundant redo.

Because commits happen in the serial loop's order through the same
:func:`~repro.core.maintenance._commit_fingerprint`, the final stores
*and* the repair statistics (``repair_bfs_count``,
``vertices_visited``, entry deltas) are bit-identical to serial repair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.build.parallel import _POOL_LOCK, _chunk, _get_pool
from repro.core.maintenance import _commit_fingerprint, _repair_hub

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.csc import CSCIndex

__all__ = ["PARALLEL_REPAIR_MIN_SIDES", "repair_hubs_parallel"]

#: Below this many repair sides the pool hand-off (graph init + full
#: RPLS broadcast) costs more than the BFSes; the batch engine keeps
#: such repairs serial.
PARALLEL_REPAIR_MIN_SIDES = 4


def repair_hubs_parallel(
    index: CSCIndex,
    del_in: set[int],
    del_out: set[int],
    workers: int,
    stats,
) -> int:
    """Repair every hub position in ``del_in`` (forward side) and
    ``del_out`` (backward side) using ``workers`` pool processes.

    Must be called with the deletions already applied to
    ``index.graph`` and the labels still pre-repair (exactly where the
    serial loop of :func:`~repro.core.batch.apply_batch` starts).
    Updates ``stats`` identically to the serial loop and returns the
    number of conflict redos.
    """
    graph = index.graph
    order = index.order
    inv_in, inv_out = index.ensure_inverted()
    rpls_in = index.store_in.to_bytes()
    rpls_out = index.store_out.to_bytes()

    hubs = sorted(del_in | del_out)
    tasks: list[tuple[bool, int, int]] = []
    for p in hubs:
        if p in del_in:
            tasks.append((True, p, order[p]))
        if p in del_out:
            tasks.append((False, p, order[p]))

    # One pooled session at a time (shared pipes; see build.parallel).
    with _POOL_LOCK:
        pool = _get_pool(workers)
        pool.init_build(graph, index.pos, "csc")
        pool.broadcast(("extend", rpls_in, rpls_out))
        results = pool.run_repairs(_chunk(tasks, pool.size))

    store_in, store_out = index.store_in, index.store_out
    changed_in: set[int] = set()
    changed_out: set[int] = set()
    conflicts = 0
    for p in hubs:
        stats.hubs_processed += 1
        h = order[p]
        if p in del_in:
            entries, visited = results[(p, True)]
            if h in changed_out or not changed_in.isdisjoint(visited):
                conflicts += 1
                changed_in.update(
                    _repair_hub(index, h, forward=True, stats=stats)
                )
            else:
                stats.repair_bfs_count += 1
                stats.vertices_visited += len(visited)
                fresh = {w: (d, c, f) for w, d, c, f in entries}
                changed_in.update(
                    _commit_fingerprint(store_in, inv_in, p, fresh, stats)
                )
        if p in del_out:
            entries, visited = results[(p, False)]
            if h in changed_in or not changed_out.isdisjoint(visited):
                conflicts += 1
                changed_out.update(
                    _repair_hub(index, h, forward=False, stats=stats)
                )
            else:
                stats.repair_bfs_count += 1
                stats.vertices_visited += len(visited)
                fresh = {w: (d, c, f) for w, d, c, f in entries}
                changed_out.update(
                    _commit_fingerprint(store_out, inv_out, p, fresh, stats)
                )
    return conflicts
