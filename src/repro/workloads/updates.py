"""Update workloads (paper Section VI-A / VI-C).

The paper's dynamic-maintenance protocol: pick a batch of random edges,
*remove* them, then *insert them back*, measuring per-edge update time and
label-entry deltas.  Figure 12 additionally clusters the deleted edges by
*edge degree* — for edge ``(v, w)``, ``in_degree(v) + out_degree(w)`` —
into the same five bands as the query clusters.

For the batched maintenance engine this module also generates *mixed op
streams* (interleaved insertions and deletions over distinct edge slots,
feasible in any order) and groups them into batches, optionally ordered
by the Figure 12 edge-degree clustering — updates around the same
high-degree hubs land in the same batch, which is exactly where the
batch engine's affected-hub union amortizes best.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.digraph import DiGraph
from repro.workloads.clusters import CLUSTER_NAMES

from repro.errors import ConfigurationError

__all__ = [
    "UpdateWorkload",
    "BatchUpdateWorkload",
    "random_edge_batch",
    "cluster_edges_by_degree",
    "mixed_update_stream",
    "batched_workload",
    "low_impact_delete_batch",
]


@dataclass(frozen=True)
class UpdateWorkload:
    """A delete-then-reinsert batch over one graph."""

    edges: list[tuple[int, int]]
    seed: int

    def __len__(self) -> int:
        return len(self.edges)


def random_edge_batch(
    graph: DiGraph, count: int, seed: int = 0
) -> UpdateWorkload:
    """Choose ``count`` distinct random edges of ``graph`` (the paper draws
    200–500; scaled profiles draw fewer)."""
    edges = list(graph.edges())
    rng = random.Random(seed)
    if count >= len(edges):
        chosen = edges
    else:
        chosen = rng.sample(edges, count)
    return UpdateWorkload(list(chosen), seed)


def edge_degree(graph: DiGraph, edge: tuple[int, int]) -> int:
    """The paper's edge-degree key for Figure 12:
    ``in_degree(tail) + out_degree(head)``."""
    tail, head = edge
    return graph.in_degree(tail) + graph.out_degree(head)


def cluster_edges_by_degree(
    graph: DiGraph, edges: list[tuple[int, int]]
) -> dict[str, list[tuple[int, int]]]:
    """Divide edges into the five bands (High..Bottom) by edge degree,
    equal-width over the batch's degree range — Figure 12's clustering."""
    clusters: dict[str, list[tuple[int, int]]] = {
        name: [] for name in CLUSTER_NAMES
    }
    if not edges:
        return clusters
    degrees = {e: edge_degree(graph, e) for e in edges}
    lo = min(degrees.values())
    hi = max(degrees.values())
    span = hi - lo
    for e in edges:
        if span == 0:
            band = len(CLUSTER_NAMES) - 1
        else:
            fraction = (degrees[e] - lo) / span
            band = 4 - min(4, int(fraction * 5))
        clusters[CLUSTER_NAMES[band]].append(e)
    return clusters


# ---------------------------------------------------------------------------
# Mixed op streams and batches (for the batched maintenance engine)
# ---------------------------------------------------------------------------

Op = tuple[str, int, int]


@dataclass(frozen=True)
class BatchUpdateWorkload:
    """A mixed update stream pre-grouped into maintenance batches."""

    batches: list[list[Op]]
    seed: int

    def __len__(self) -> int:
        return len(self.batches)

    @property
    def ops(self) -> list[Op]:
        """The stream flattened back to one op sequence."""
        return [op for batch in self.batches for op in batch]


def mixed_update_stream(
    graph: DiGraph,
    count: int,
    seed: int = 0,
    insert_fraction: float = 0.5,
) -> list[Op]:
    """A shuffled stream of ``count`` ops over *distinct* edge slots:
    deletions of existing edges and insertions of currently-absent edges.

    Because every op touches its own edge slot, the stream is feasible in
    any order — prerequisite for the degree-ordered batching of
    :func:`batched_workload` — and sums to the paper's delete/re-insert
    protocol when ``insert_fraction=0.5``.
    """
    if not 0.0 <= insert_fraction <= 1.0:
        raise ConfigurationError("insert_fraction must be within [0, 1]")
    rng = random.Random(seed)
    edges = list(graph.edges())
    n = graph.n
    want_inserts = round(count * insert_fraction)
    want_deletes = count - want_inserts
    deletions = rng.sample(edges, min(want_deletes, len(edges)))
    insertions: list[tuple[int, int]] = []
    free_slots = n * (n - 1) - graph.m
    want_inserts = min(want_inserts, free_slots)
    chosen: set[tuple[int, int]] = set()
    attempts = 0
    while len(insertions) < want_inserts and attempts < 100 * (count + 1):
        attempts += 1
        tail, head = rng.randrange(n), rng.randrange(n)
        slot = (tail, head)
        if tail != head and slot not in chosen and not graph.has_edge(*slot):
            chosen.add(slot)
            insertions.append(slot)
    ops = [("delete", a, b) for a, b in deletions]
    ops += [("insert", a, b) for a, b in insertions]
    rng.shuffle(ops)
    return ops


def batched_workload(
    graph: DiGraph,
    count: int,
    batch_size: int,
    seed: int = 0,
    insert_fraction: float = 0.5,
    cluster: bool = True,
) -> BatchUpdateWorkload:
    """Group a mixed update stream into batches of ``batch_size``.

    With ``cluster=True`` (the default) the ops are first ordered by the
    Figure 12 edge-degree bands (High first), so each batch concentrates
    on edges around the same hubs — maximizing the affected-hub overlap
    the batch engine amortizes.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be at least 1")
    ops = mixed_update_stream(graph, count, seed, insert_fraction)
    if cluster and ops:
        by_edge: dict[tuple[int, int], list[Op]] = {}
        for op in ops:
            by_edge.setdefault((op[1], op[2]), []).append(op)
        clusters = cluster_edges_by_degree(graph, list(by_edge))
        ops = [
            op
            for name in CLUSTER_NAMES
            for edge in clusters[name]
            for op in by_edge[edge]
        ]
    batches = [
        ops[i : i + batch_size] for i in range(0, len(ops), batch_size)
    ]
    return BatchUpdateWorkload(batches, seed)


def low_impact_delete_batch(
    index,
    max_ops: int,
    seed: int = 0,
    sample: int = 120,
    fraction_cap: float | None = None,
) -> tuple[list[Op], float]:
    """A deletion batch biased toward the *least* repair work.

    Samples ``sample`` candidate edges, prices each by its
    deletion-affected repair sides (the batch engine's own
    :func:`~repro.core.batch.deletion_affected_hubs`, BFSes memoized per
    endpoint across candidates), and greedily takes the cheapest edges
    first.  With ``fraction_cap`` the greedy stops before the running
    *union* fraction ``(|del_in| + |del_out|) / n`` would exceed the
    cap, so the returned batch stays on the incremental path under that
    rebuild threshold — when the graph admits it at all: on dense
    synthetic graphs a single deletion can exceed the default cap, in
    which case the single cheapest edge is returned and the caller sees
    the honest fraction.

    Returns ``(ops, fraction)`` where ``fraction`` is the batch's
    affected-side fraction on the pre-batch graph.  ``index`` is only
    read (discovery mutates nothing).
    """
    from repro.core.batch import deletion_affected_hubs

    graph = index.graph
    pos = index.pos
    rng = random.Random(seed)
    edges = sorted(graph.edges())
    candidates = (
        rng.sample(edges, sample) if len(edges) > sample else edges
    )
    fwd: dict[int, list[float]] = {}
    rev: dict[int, list[float]] = {}
    priced = []
    for a, b in candidates:
        aff_in, aff_out = deletion_affected_hubs(graph, a, b, fwd, rev)
        priced.append((len(aff_in) + len(aff_out), (a, b), aff_in, aff_out))
    priced.sort(key=lambda item: (item[0], item[1]))
    del_in: set[int] = set()
    del_out: set[int] = set()
    ops: list[Op] = []
    n = graph.n or 1
    for _, (a, b), aff_in, aff_out in priced:
        if len(ops) >= max_ops:
            break
        new_in = del_in | {pos[v] for v in aff_in}
        new_out = del_out | {pos[v] for v in aff_out}
        if (
            ops
            and fraction_cap is not None
            and (len(new_in) + len(new_out)) / n > fraction_cap
        ):
            continue
        del_in, del_out = new_in, new_out
        ops.append(("delete", a, b))
    return ops, (len(del_in) + len(del_out)) / n
