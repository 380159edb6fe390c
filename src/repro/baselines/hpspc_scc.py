"""Baseline 1 (paper Section III-A): SCCnt via HP-SPC plus neighborhoods.

``SPCnt(vq, vq)`` over a plain HP-SPC index degenerates to the self-hub at
distance 0, so cycle counting is reduced to shortest-path counting between
``vq`` and its neighbors: pick the smaller neighbor side (out-neighbors when
``|nbr_out| < |nbr_in|``), query ``SPCnt`` for each neighbor, keep the
minimum closing distance, and sum the counts over the argmin set —
Equations (3)–(4).  Query cost is therefore
``min(|nbr_in|, |nbr_out|) * t_P`` where ``t_P`` is one SPCnt evaluation,
which is exactly the degree-sensitivity Figure 10 demonstrates.
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.labeling.hpspc import HPSPCIndex
from repro.types import NO_CYCLE, CycleCount

__all__ = ["hpspc_cycle_count", "HPSPCCycleCounter"]


def hpspc_cycle_count(
    index: HPSPCIndex, graph: DiGraph, vq: int
) -> CycleCount:
    """``SCCnt(vq)`` per Equations (3)–(4) over a built HP-SPC index."""
    out_nbrs = graph.out_neighbors(vq)
    in_nbrs = graph.in_neighbors(vq)
    if not out_nbrs or not in_nbrs:
        return NO_CYCLE  # a cycle needs both an out- and an in-edge at vq
    best = float("inf")
    total = 0
    if len(out_nbrs) < len(in_nbrs):
        # cycle = edge (vq, w) + shortest path w -> vq
        for w in out_nbrs:
            d, c = index.spcnt(w, vq)
            if d + 1 < best:
                best = d + 1
                total = c
            elif d + 1 == best:
                total += c
    else:
        # cycle = shortest path vq -> u + edge (u, vq)
        for u in in_nbrs:
            d, c = index.spcnt(vq, u)
            if d + 1 < best:
                best = d + 1
                total = c
            elif d + 1 == best:
                total += c
    if total == 0:
        return NO_CYCLE
    return CycleCount(total, best)


class HPSPCCycleCounter:
    """Convenience wrapper bundling a graph with its HP-SPC index.

    This is the paper's *baseline system*: same index as HP-SPC for SPCnt,
    with SCCnt answered through the neighborhood reduction.  Dynamic
    updates run through the same maintenance entry points as the CSC
    counter (:func:`repro.core.maintenance.insert_edge` /
    :func:`repro.core.maintenance.delete_edge`), giving the baseline
    update parity for fair dynamic comparisons.
    """

    def __init__(self, graph: DiGraph, order: list[int] | None = None) -> None:
        self.graph = graph
        self.index = HPSPCIndex.build(graph, order)

    def count(self, vq: int) -> CycleCount:
        """``SCCnt(vq)``."""
        return hpspc_cycle_count(self.index, self.graph, vq)

    def spcnt(self, s: int, t: int) -> tuple[float, int]:
        """Underlying shortest-path counting query."""
        return self.index.spcnt(s, t)

    def insert_edge(self, tail: int, head: int, strategy: str = "redundancy"):
        """Insert an edge and maintain the HP-SPC index incrementally."""
        from repro.core.maintenance import insert_edge

        return insert_edge(self.index, tail, head, strategy)

    def delete_edge(self, tail: int, head: int):
        """Delete an edge and repair the HP-SPC index."""
        from repro.core.maintenance import delete_edge

        return delete_edge(self.index, tail, head)
