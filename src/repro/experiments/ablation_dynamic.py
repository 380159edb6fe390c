"""Ablation: dynamic maintenance cost, CSC vs the HP-SPC baseline.

The paper maintains only the CSC index (its baselines are static).  This
reproduction also maintains HP-SPC, through the same entry points
(:func:`repro.core.maintenance.insert_edge` /
:func:`repro.core.maintenance.delete_edge`, which take either index),
so a head-to-head update-cost comparison is possible: both indexes
replay the same delete-then-reinsert batch, and we measure per-edge
insertion and deletion times plus the query-speed consequence on
high-degree vertices.
"""

from __future__ import annotations

import time

from repro.core.csc import CSCIndex
from repro.core.maintenance import delete_edge, insert_edge
from repro.experiments.results import ExperimentResult
from repro.graph.datasets import DATASETS
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.ordering import degree_order
from repro.workloads.updates import random_edge_batch

__all__ = ["run"]


def run(
    profile: str = "small",
    seed: int = 7,
    datasets: list[str] | None = None,
    batch_size: int = 10,
) -> ExperimentResult:
    """Replay one update batch through both dynamic indexes."""
    names = datasets if datasets is not None else ["G04", "WKT"]
    headers = [
        "graph", "index", "insert_ms", "delete_ms", "entries_delta",
    ]
    rows: list[list[object]] = []
    extras: dict[str, dict[str, dict[str, float]]] = {}
    for name in names:
        graph = DATASETS[name].build(profile, seed)
        order = degree_order(graph)
        batch = random_edge_batch(graph, batch_size, seed).edges
        extras[name] = {}
        for label, kind in (("CSC", CSCIndex), ("HP-SPC", HPSPCIndex)):
            index = kind.build(graph.copy(), order)
            entries_before = index.total_entries()
            start = time.perf_counter()
            for tail, head in batch:
                delete_edge(index, tail, head)
            delete_s = time.perf_counter() - start
            start = time.perf_counter()
            for tail, head in batch:
                insert_edge(index, tail, head)
            insert_s = time.perf_counter() - start
            delta = index.total_entries() - entries_before
            rows.append(
                [
                    name, label,
                    insert_s / len(batch) * 1e3,
                    delete_s / len(batch) * 1e3,
                    delta,
                ]
            )
            extras[name][label] = {
                "insert_s": insert_s / len(batch),
                "delete_s": delete_s / len(batch),
            }
    return ExperimentResult(
        "Ablation A3",
        "Dynamic maintenance cost: CSC vs HP-SPC baseline (extension)",
        headers,
        rows,
        notes=[
            "the paper maintains only CSC; HP-SPC maintenance is this "
            "reproduction's extension (repro.core.maintenance, shared "
            "with CSC)",
            "expectation: similar per-edge cost — CSC pays a constant "
            "factor for the implicit bipartite stride, and wins overall "
            "because its *queries* stay degree-independent (Figure 10)",
        ],
        data=extras,
    )


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
