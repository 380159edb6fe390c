"""Batched dynamic maintenance of the CSC index (BATCH-INCCNT/DECCNT).

The paper's INCCNT/DECCNT (Section V) maintain the index one edge at a
time: every update pays its own affected-hub discovery *and* one repair
BFS per affected hub.  Consecutive stream updates, however, share most of
their affected hubs — a burst of transactions around a hot account keeps
touching the same high-rank hubs — so per-edge processing re-runs nearly
identical repair BFSes over and over.  :func:`apply_batch` amortizes that
work across a whole mixed batch of insertions and deletions:

1. **Normalize** the batch to its *net effect*: ops are validated against
   the evolving in-batch edge state (so ``insert`` of a present edge or
   ``delete`` of an absent one is caught *before* anything mutates), and
   ops that cancel within the batch (insert-then-delete of the same edge,
   or delete-then-reinsert) are dropped outright.  Queries are a pure
   function of the final graph — the maintained index is exact after
   every correct update sequence — so the net batch yields bit-identical
   answers to the sequential op-by-op application, in any replay order.
   The engine replays *all deletions first, then all insertions*.
2. **Deletions, batched** (the expensive side: Figure 12 puts DECCNT one
   to two orders of magnitude above INCCNT).  The four-BFS distance
   conditions of Section V-C are evaluated once per deleted edge on the
   pre-batch graph, and their union is repaired with **one**
   construction-BFS fingerprint replace per distinct affected hub, in
   descending rank order.  A hub touched by ten deletions is repaired
   once, not ten times — that union sharing is where the batch speedup
   comes from.

   *Why the pre-batch union covers everything:* a hub ``h`` outside all
   per-edge conditions has ``sd(h, a) + 1 > sd(h, b)`` for every deleted
   edge ``(a, b)`` (and the mirrored inequality for the out-side), i.e.
   no shortest path from ``h`` (resp. into ``h``) crosses any deleted
   edge.  Removing edges only lengthens distances and existing shortest
   paths survive, so all of ``h``'s distances *and counts* are preserved
   — which inductively keeps the conditions false on every intermediate
   graph of a sequential replay, so sequential DECCNT would never touch
   ``h`` either.  Descending rank order makes the per-hub repairs
   compose exactly like Algorithm 3: each fingerprint BFS reads only
   labels owned by strictly higher-ranked hubs, which are either already
   repaired or were never affected.
3. **Insertions, replayed** through INCCNT's resumed seeded BFS, edge by
   edge, on the post-deletion graph.  INCCNT passes are seed-specific —
   each derives its seeds from the labels *as updated by the previous
   insertions* — so unlike deletions there is no per-hub work to share;
   naive hub merging would double-count shortest paths that traverse
   several new edges.  Replaying keeps insertions at their already-cheap
   per-edge cost (and keeps ``minimality``-strategy CLEAN-LABEL
   semantics exactly sequential) while the batch still wins on the
   deletion side and on the fallback below.

A cost-model fallback bounds the worst case: each fingerprint repair
costs about one hub's construction BFS, and a hub affected on *both*
sides pays two (its in-side and its out-side fingerprints are separate
BFSes), so once the total repair-side count exceeds
``rebuild_threshold`` as a fraction of all vertices, a single
from-scratch build of the final graph (the paper's Figure 11/12
strawman) is the cheaper plan and :func:`apply_batch` takes it instead.

Steps 1–2's discovery and the cost model read the graph and never the
labels, so they form a separate, mutation-free step, :func:`plan_batch`,
which :func:`apply_batch` runs before executing the plan.  Crash recovery
plans every logged batch the same way: a rebuild-bound batch's outcome
depends only on the final graph and the vertex order, so
:mod:`repro.persist.recovery` applies its edge changes to the graph and
builds once for a whole run of such batches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence

from repro.core.csc import CSCIndex
from repro.core.maintenance import (
    _check_strategy,
    _repair_hub,
    deletion_affected_hubs,
    insert_edge,
)
from repro.errors import (
    ConfigurationError,
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexError,
)
from repro.graph.digraph import DiGraph

__all__ = ["BatchPlan", "BatchStats", "apply_batch", "normalize_batch",
           "plan_batch", "rebuild_labels", "DEFAULT_REBUILD_THRESHOLD"]

#: Rebuild from scratch once this fraction of all hubs needs a
#: fingerprint repair.
DEFAULT_REBUILD_THRESHOLD = 0.25

Op = tuple[str, int, int]


@dataclass
class BatchStats:
    """Instrumentation for one batched update (mirrors
    :class:`~repro.core.maintenance.UpdateStats` so the two can share an
    update log; the extra fields describe the batch itself)."""

    operation: str = "batch"
    strategy: str = "redundancy"
    #: ops handed to :func:`apply_batch`, before normalization
    submitted: int = 0
    #: net edge insertions / deletions applied to the graph
    inserted: int = 0
    deleted: int = 0
    #: infeasible ops dropped in ``on_invalid="skip"`` mode
    skipped: list[Op] = field(default_factory=list)
    #: feasible ops that cancelled out within the batch (net no-ops)
    cancelled: int = 0
    #: repair/update passes run (0 when the rebuild fallback ran)
    hubs_processed: int = 0
    #: fingerprint-repair BFSes actually run — one per repaired *side*,
    #: so a hub repaired on both sides counts twice (``hubs_processed``
    #: counts it once)
    repair_bfs_count: int = 0
    vertices_visited: int = 0
    entries_added: int = 0
    entries_updated: int = 0
    entries_removed: int = 0
    #: deletion-affected repair *sides* / n — the rebuild cost model's
    #: input.  Each side is one fingerprint-repair BFS, so a hub affected
    #: on both sides counts twice and the fraction can reach 2.0.
    affected_hub_fraction: float = 0.0
    #: True when the cost model chose a from-scratch rebuild
    rebuilt: bool = False
    details: dict = field(default_factory=dict)

    @property
    def applied(self) -> int:
        """Net edge mutations applied to the graph."""
        return self.inserted + self.deleted

    @property
    def net_entry_delta(self) -> int:
        """Net change in stored label entries (incremental path only)."""
        return self.entries_added - self.entries_removed


def normalize_batch(
    graph, ops: Iterable[Op], on_invalid: str = "raise"
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[Op], int]:
    """Reduce an op sequence to its net effect against ``graph``.

    Replays the ops over a virtual edge state (the graph is not touched),
    validating each against the state *at its point in the sequence* — so
    ``[insert e, insert e]`` is invalid even when ``e`` starts absent, and
    ``[insert e, delete e]`` is a feasible net no-op.

    Returns ``(net_inserts, net_deletes, skipped, submitted)``.  Malformed
    ops (unknown op name, out-of-range vertex, self loop) always raise;
    presence conflicts raise :class:`EdgeExistsError` /
    :class:`EdgeNotFoundError` under ``on_invalid="raise"`` (the default —
    and because normalization runs before any mutation, a raising batch
    leaves graph and index completely untouched) or are dropped and
    reported under ``on_invalid="skip"``.
    """
    if on_invalid not in ("raise", "skip"):
        raise ConfigurationError(
            f"on_invalid must be 'raise' or 'skip', got {on_invalid!r}"
        )
    n = graph.n
    state: dict[tuple[int, int], bool] = {}
    skipped: list[Op] = []
    submitted = 0
    for op, a, b in ops:
        submitted += 1
        if op not in ("insert", "delete"):
            raise ConfigurationError(f"unknown batch op {op!r}")
        if not 0 <= a < n:
            raise VertexError(a, n)
        if not 0 <= b < n:
            raise VertexError(b, n)
        if a == b:
            raise SelfLoopError(a)
        key = (a, b)
        present = state.get(key)
        if present is None:
            present = graph.has_edge(a, b)
        if op == "insert":
            if present:
                if on_invalid == "raise":
                    raise EdgeExistsError(a, b)
                skipped.append((op, a, b))
                continue
            state[key] = True
        else:
            if not present:
                if on_invalid == "raise":
                    raise EdgeNotFoundError(a, b)
                skipped.append((op, a, b))
                continue
            state[key] = False
    net_inserts = [
        e for e, present in state.items() if present and not graph.has_edge(*e)
    ]
    net_deletes = [
        e for e, present in state.items()
        if not present and graph.has_edge(*e)
    ]
    return net_inserts, net_deletes, skipped, submitted


@dataclass
class BatchPlan:
    """What :func:`apply_batch` will do with a batch, decided from the
    graph alone by :func:`plan_batch` (nothing is mutated and no label
    is read)."""

    #: net edge insertions / deletions against the pre-batch graph
    inserts: list[tuple[int, int]]
    deletes: list[tuple[int, int]]
    #: vertices whose in-side (forward) / out-side (backward) labels
    #: need a fingerprint repair once the deletions are applied
    aff_in: set[int]
    aff_out: set[int]
    #: the batch's stats as far as planning fills them: normalization
    #: counts, discovery time and the cost model's input
    stats: BatchStats
    #: True when the cost model chose a from-scratch rebuild
    rebuild: bool = False

    def apply_edges(self, graph: DiGraph) -> None:
        """Apply the net edge changes to ``graph`` — deletions first, then
        insertions — without touching any label.  The rebuild fallback
        runs this before its build; recovery runs it to fold a
        rebuild-bound record into the graph."""
        for a, b in self.deletes:
            graph.remove_edge(a, b)
        for a, b in self.inserts:
            graph.add_edge(a, b)


def plan_batch(
    graph: DiGraph,
    ops: Iterable[Op],
    on_invalid: str = "raise",
    rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
) -> BatchPlan:
    """Normalize ``ops`` against ``graph``, find every deletion-affected
    hub, and apply the rebuild cost model — the part of
    :func:`apply_batch` that depends on the graph alone.

    Raises exactly what :func:`normalize_batch` raises; mutates nothing.
    Because discovery reads no label, the plan is the same whatever
    state the labels are in, which is what lets recovery fold
    rebuild-bound records into the graph and build once.
    """
    inserts, deletes, skipped, submitted = normalize_batch(
        graph, ops, on_invalid
    )
    stats = BatchStats(submitted=submitted, skipped=skipped,
                       inserted=len(inserts), deleted=len(deletes))
    stats.cancelled = submitted - len(skipped) - len(inserts) - len(deletes)
    plan = BatchPlan(inserts, deletes, set(), set(), stats)
    if not inserts and not deletes:
        return plan
    # Union over every deletion, on the pre-batch graph (batch edges
    # often share endpoints, so the four per-edge BFSes are memoized
    # per source across the whole batch).
    forward_dists: dict[int, list[float]] = {}
    reverse_dists: dict[int, list[float]] = {}
    start = time.perf_counter()
    for a, b in deletes:
        aff_in, aff_out = deletion_affected_hubs(
            graph, a, b, forward_dists, reverse_dists
        )
        plan.aff_in |= aff_in
        plan.aff_out |= aff_out
    stats.details["discovery_wall_s"] = time.perf_counter() - start
    # Price per repair *side*: a hub affected on both sides costs two
    # fingerprint BFSes, so |aff_in| + |aff_out| (not the union) is the
    # BFS count a rebuild is weighed against — and past the threshold
    # one full build is the cheaper plan.
    sides = len(plan.aff_in) + len(plan.aff_out)
    stats.affected_hub_fraction = sides / graph.n if graph.n else 0.0
    stats.details["affected_in_hubs"] = len(plan.aff_in)
    stats.details["affected_out_hubs"] = len(plan.aff_out)
    plan.rebuild = stats.affected_hub_fraction > rebuild_threshold
    return plan


def rebuild_labels(index: CSCIndex, stats: BatchStats) -> None:
    """Replace ``index``'s labels with a from-scratch build of its
    current graph under its own order (the rebuild fallback)."""
    start = time.perf_counter()
    index.adopt_labels(CSCIndex.build(index.graph, index.order))
    stats.details["rebuild_wall_s"] = time.perf_counter() - start
    stats.rebuilt = True


def apply_batch(
    index: CSCIndex,
    ops: Iterable[Op] | Sequence[Op],
    strategy: str = "redundancy",
    rebuild_threshold: float = DEFAULT_REBUILD_THRESHOLD,
    on_invalid: str = "raise",
    on_repair_plan: Callable[[set[int], set[int]], None] | None = None,
) -> BatchStats:
    """Apply a mixed batch of ``("insert"|"delete", tail, head)`` ops and
    repair the index with one fingerprint pass per distinct
    deletion-affected hub plus an INCCNT replay of the insertions.

    Produces query results bit-identical to applying the ops one at a time
    through :func:`~repro.core.maintenance.insert_edge` /
    :func:`~repro.core.maintenance.delete_edge` (see the module docstring
    for the argument and ``tests/properties/test_batch_differential.py``
    for the machine-checked version).  The plan — normalization,
    discovery and the rebuild decision — is :func:`plan_batch`; this
    function executes it.

    ``on_repair_plan``, when given, is called with ``(del_in, del_out)``
    — the hub-position sets needing forward/backward repair — after
    affected-hub discovery but *before* any graph or label mutation.
    The deferred-repair serving path uses this seam to tombstone exactly
    the hubs whose fingerprints are about to go stale.
    """
    _check_strategy(strategy)
    graph = index.graph
    plan = plan_batch(graph, ops, on_invalid, rebuild_threshold)
    stats = plan.stats
    stats.strategy = strategy
    if not plan.inserts and not plan.deletes:
        return stats

    pos = index.pos
    order = index.order
    del_in = {pos[v] for v in plan.aff_in}  # hub positions, forward repair
    del_out = {pos[v] for v in plan.aff_out}  # backward repair
    if on_repair_plan is not None:
        on_repair_plan(del_in, del_out)

    if plan.rebuild:
        plan.apply_edges(graph)
        rebuild_labels(index, stats)
        return stats

    for a, b in plan.deletes:
        graph.remove_edge(a, b)

    # -- one fingerprint repair per distinct hub side, descending rank --
    repair_hubs = del_in | del_out
    if repair_hubs:
        phase_start = time.perf_counter()
        index.ensure_inverted()
        for p in sorted(repair_hubs):
            stats.hubs_processed += 1
            h = order[p]
            if p in del_in:
                _repair_hub(index, h, forward=True, stats=stats)
            if p in del_out:
                _repair_hub(index, h, forward=False, stats=stats)
        stats.details["repair_wall_s"] = time.perf_counter() - phase_start

    # -- INCCNT replay of the insertions on the post-deletion graph ------
    for a, b in plan.inserts:
        sub = insert_edge(index, a, b, strategy)
        stats.hubs_processed += sub.hubs_processed
        stats.repair_bfs_count += sub.repair_bfs_count
        stats.vertices_visited += sub.vertices_visited
        stats.entries_added += sub.entries_added
        stats.entries_updated += sub.entries_updated
        stats.entries_removed += sub.entries_removed
    return stats
