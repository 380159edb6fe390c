"""Batched-maintenance benchmarks: batch size vs per-edge speedup.

Protocol: draw a batch of existing edges (the paper's update pool), apply
them as one mixed delete/re-insert stream, and compare the batched engine
(one fingerprint repair per distinct deletion-affected hub) against the
per-edge INCCNT/DECCNT replay.  ``extra_info`` records both timings and
the speedup so the full batch-size curve can be plotted from one run.
"""

import time

import pytest

from repro.core.batch import apply_batch
from repro.core.csc import CSCIndex
from repro.core.maintenance import delete_edge, insert_edge
from repro.workloads.updates import batched_workload

BATCH_SIZES = [4, 16, 32, 64]


def _make_ops(graph, size, seed=3):
    workload = batched_workload(
        graph, size, size, seed=seed, insert_fraction=0.5
    )
    return workload.ops


def _prepare(graph, order):
    """Index over a private copy of the graph (op streams are generated
    against it: deletions hit present edges, insertions absent slots)."""
    return CSCIndex.build(graph.copy(), order)


def _run_sequential(base, ops):
    index = base.copy()
    for op, a, b in ops:
        if op == "insert":
            insert_edge(index, a, b)
        else:
            delete_edge(index, a, b)
    return index


def _run_batched(base, ops, rebuild_threshold=2.0):
    index = base.copy()
    apply_batch(index, ops, rebuild_threshold=rebuild_threshold)
    return index


@pytest.fixture(scope="module")
def update_pool(dataset_graph, dataset_order):
    """One op pool per dataset, sized for the largest batch: a mixed
    stream of deletions (of present edges) and insertions (into absent
    slots), degree-ordered as the batch generators emit it."""
    ops = _make_ops(dataset_graph, max(BATCH_SIZES))
    return dataset_graph, dataset_order, ops


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_vs_per_edge(benchmark, update_pool, batch_size,
                           dataset_name):
    graph, order, pool = update_pool
    ops = pool[:batch_size]
    base = _prepare(graph, order)

    start = time.perf_counter()
    _run_sequential(base, ops)
    sequential = time.perf_counter() - start

    def run():
        start = time.perf_counter()
        _run_batched(base, ops)
        return time.perf_counter() - start

    # Timed inside the one round, not read off benchmark.stats, which
    # is None under --benchmark-disable.
    batched = benchmark.pedantic(run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    benchmark.extra_info.update(
        dataset=dataset_name,
        batch=batch_size,
        sequential_s=sequential,
        batched_s=batched,
        speedup=sequential / batched if batched else float("inf"),
    )


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_rebuild_fallback_path(benchmark, update_pool, batch_size,
                               dataset_name):
    """The default cost model may answer large batches with one rebuild;
    benchmark that path too (it bounds the engine's worst case)."""
    graph, order, pool = update_pool
    ops = pool[:batch_size]
    base = _prepare(graph, order)

    def run():
        index = base.copy()
        return apply_batch(index, ops).rebuilt

    rebuilt = benchmark.pedantic(run, rounds=1, iterations=1,
                                 warmup_rounds=0)
    benchmark.extra_info.update(
        dataset=dataset_name, batch=batch_size, rebuilt=rebuilt
    )


def test_batch_claim_speedup(update_pool, dataset_name):
    """Acceptance claim: >= 2x over per-edge maintenance for batches of
    >= 32 edges on the paper-style synthetic graphs."""
    graph, order, pool = update_pool
    ops = pool[:32]
    base = _prepare(graph, order)

    start = time.perf_counter()
    _run_sequential(base, ops)
    sequential = time.perf_counter() - start

    start = time.perf_counter()
    _run_batched(base, ops)
    batched = time.perf_counter() - start

    assert batched * 2 <= sequential, (
        f"{dataset_name}: batch of {len(ops)} took {batched:.4f}s, "
        f"per-edge took {sequential:.4f}s "
        f"({sequential / batched:.2f}x < 2x)"
    )


def test_batch_results_match_sequential(update_pool):
    """Sanity inside the bench suite: both engines end at identical query
    results (the differential property suite covers this exhaustively)."""
    graph, order, pool = update_pool
    ops = pool[:32]
    base = _prepare(graph, order)
    seq = _run_sequential(base, ops)
    bat = _run_batched(base, ops)
    for v in graph.vertices():
        assert seq.sccnt(v) == bat.sccnt(v)
