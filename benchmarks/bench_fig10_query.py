"""Figure 10 benchmarks: SCCnt query time per degree cluster for the three
algorithms (BFS / HP-SPC+neighborhood / CSC).

One benchmark per (algorithm, cluster); the benchmarked callable runs the
whole sampled cluster, so per-query time = reported time / sample size
(recorded in ``extra_info``).
"""

import pytest

from repro.baselines.bfs_cycle import bfs_cycle_count
from repro.baselines.hpspc_scc import hpspc_cycle_count
from repro.workloads.clusters import CLUSTER_NAMES, cluster_vertices

SAMPLE_PER_CLUSTER = 20


@pytest.fixture(scope="session")
def clusters(dataset_graph):
    return cluster_vertices(dataset_graph).sample(SAMPLE_PER_CLUSTER, seed=1)


def _cluster_vertices_or_skip(clusters, cluster_name):
    vertices = clusters.clusters[cluster_name]
    if not vertices:
        pytest.skip(f"cluster {cluster_name} empty on this graph")
    return vertices


@pytest.mark.parametrize("cluster_name", CLUSTER_NAMES)
def test_fig10_bfs(benchmark, dataset_graph, clusters, cluster_name,
                   dataset_name):
    vertices = _cluster_vertices_or_skip(clusters, cluster_name)
    benchmark(lambda: [bfs_cycle_count(dataset_graph, v) for v in vertices])
    benchmark.extra_info.update(
        dataset=dataset_name, cluster=cluster_name, queries=len(vertices)
    )


@pytest.mark.parametrize("cluster_name", CLUSTER_NAMES)
def test_fig10_hpspc(benchmark, dataset_graph, hpspc_index, clusters,
                     cluster_name, dataset_name):
    vertices = _cluster_vertices_or_skip(clusters, cluster_name)
    benchmark(
        lambda: [
            hpspc_cycle_count(hpspc_index, dataset_graph, v) for v in vertices
        ]
    )
    benchmark.extra_info.update(
        dataset=dataset_name, cluster=cluster_name, queries=len(vertices)
    )


@pytest.mark.parametrize("cluster_name", CLUSTER_NAMES)
def test_fig10_csc(benchmark, csc_index, clusters, cluster_name,
                   dataset_name):
    vertices = _cluster_vertices_or_skip(clusters, cluster_name)
    benchmark(lambda: [csc_index.sccnt(v) for v in vertices])
    benchmark.extra_info.update(
        dataset=dataset_name, cluster=cluster_name, queries=len(vertices)
    )


def test_fig10_claim_csc_faster_on_high_cluster(
    dataset_graph, hpspc_index, csc_index, clusters, dataset_name
):
    """The paper's headline: CSC beats the HP-SPC neighborhood baseline on
    high-degree query vertices (3.11x-130.1x in the paper)."""
    import time

    for name in ("High", "Mid-high"):
        vertices = clusters.clusters[name]
        if not vertices:
            continue
        start = time.perf_counter()
        for _ in range(5):
            for v in vertices:
                hpspc_cycle_count(hpspc_index, dataset_graph, v)
        hp = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(5):
            for v in vertices:
                csc_index.sccnt(v)
        csc = time.perf_counter() - start
        assert csc < hp, (
            f"{dataset_name}/{name}: CSC ({csc:.4f}s) not faster than "
            f"HP-SPC ({hp:.4f}s)"
        )
        return
    import pytest

    pytest.skip("no high-degree clusters on this graph")


# ---------------------------------------------------------------------------
# Bulk (deduplicated batch) query path
# ---------------------------------------------------------------------------

BULK_BATCH = 1000


@pytest.fixture(scope="session")
def bulk_workload(clusters, dataset_graph):
    """Hot-set batches sampled with replacement from the Figure-10
    cluster workload — the shape serving readers produce."""
    import random

    vertices = [
        v for cluster in clusters.clusters.values() for v in cluster
    ]
    if not vertices:
        pytest.skip("no cluster vertices on this graph")
    rng = random.Random(1)
    hot_vs = [rng.choice(vertices) for _ in range(BULK_BATCH)]
    pair_pop = [
        (rng.choice(vertices), rng.choice(vertices)) for _ in range(256)
    ]
    hot_pairs = [rng.choice(pair_pop) for _ in range(BULK_BATCH)]
    return hot_vs, hot_pairs


def test_fig10_csc_bulk_sccnt(benchmark, csc_index, bulk_workload,
                              dataset_name):
    hot_vs, _ = bulk_workload
    # Never time a divergent kernel.
    assert csc_index.sccnt_many(hot_vs) == [
        csc_index.sccnt(v) for v in hot_vs
    ]
    benchmark(lambda: csc_index.sccnt_many(hot_vs))
    benchmark.extra_info.update(dataset=dataset_name, queries=BULK_BATCH)


def test_fig10_csc_bulk_spcnt(benchmark, csc_index, bulk_workload,
                              dataset_name):
    _, hot_pairs = bulk_workload
    assert csc_index.spcnt_many(hot_pairs) == [
        csc_index.spcnt(x, y) for x, y in hot_pairs
    ]
    benchmark(lambda: csc_index.spcnt_many(hot_pairs))
    benchmark.extra_info.update(dataset=dataset_name, queries=BULK_BATCH)
