"""QueryAPI conformance: three backends, one read surface, one answer.

Every implementation — the live counter, a published snapshot, and a
replica process across a pipe — must satisfy
the structural protocol *and* agree answer-for-answer on the same
state, including error behavior for out-of-range vertices.  This is
the contract that lets ``drive_mixed``, the monitor, and the
benchmarks swap backends without edits.
"""

import random

import pytest

from repro.core.counter import ShortestCycleCounter
from repro.errors import VertexError
from repro.graph.digraph import DiGraph
from repro.service import (
    DurabilityConfig,
    QueryAPI,
    ServeConfig,
    ServeEngine,
)

pytestmark = pytest.mark.persist  # the replica backend needs a data_dir


def make_graph(seed=3, n=12, m=30):
    rng = random.Random(seed)
    g = DiGraph(n)
    while g.m < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """A started 1-replica cluster, flushed and caught up (shared by
    the module: replica processes are the expensive part)."""
    from repro.cluster import Cluster

    data_dir = tmp_path_factory.mktemp("queryapi")
    config = ServeConfig(
        batch_size=4, durability=DurabilityConfig(data_dir=data_dir)
    )
    cluster = Cluster(make_graph(), config, replicas=1)
    cluster.start()
    ops = [("insert", 0, 5), ("delete", 0, 5), ("insert", 2, 7)]
    for op in ops:
        if op[0] == "insert" and cluster.engine.counter.graph.has_edge(
            op[1], op[2]
        ):
            continue
        cluster.submit(*op)
    final = cluster.flush()
    cluster.wait_for_epoch(final.epoch)
    yield cluster
    cluster.stop()


def backends(cluster):
    """(name, backend) pairs all at the primary's final state."""
    counter = cluster.engine.counter
    snapshot = cluster.engine.snapshot()
    return [
        ("counter", counter),
        ("snapshot", snapshot),
        ("replica", cluster.router.live()[0]),
    ]


class TestConformance:
    def test_all_backends_are_queryapi_instances(self, cluster):
        for name, backend in backends(cluster):
            assert isinstance(backend, QueryAPI), name
        assert isinstance(cluster.router, QueryAPI)

    def test_epoch_is_an_int(self, cluster):
        for name, backend in backends(cluster):
            assert isinstance(backend.epoch, int), name

    def test_sccnt_agrees_everywhere(self, cluster):
        reference = cluster.engine.snapshot()
        n = reference.n
        for name, backend in backends(cluster):
            for v in range(n):
                assert backend.sccnt(v) == reference.sccnt(v), (name, v)

    def test_sccnt_many_matches_scalar(self, cluster):
        reference = cluster.engine.snapshot()
        vertices = list(range(reference.n))
        expected = [reference.sccnt(v) for v in vertices]
        for name, backend in backends(cluster):
            assert backend.sccnt_many(vertices) == expected, name

    def test_spcnt_agrees_everywhere(self, cluster):
        reference = cluster.engine.snapshot()
        pairs = [(0, 1), (2, 7), (5, 5), (3, 9)]
        expected = [reference.spcnt(x, y) for x, y in pairs]
        for name, backend in backends(cluster):
            assert [
                backend.spcnt(x, y) for x, y in pairs
            ] == expected, name
            assert backend.spcnt_many(pairs) == expected, name

    def test_top_suspicious_agrees_everywhere(self, cluster):
        expected = cluster.engine.snapshot().top_suspicious(5)
        for name, backend in backends(cluster):
            assert backend.top_suspicious(5) == expected, name

    def test_out_of_range_vertex_raises_vertex_error(self, cluster):
        for name, backend in backends(cluster):
            with pytest.raises(VertexError):
                backend.sccnt(10_000)

    def test_router_answers_match_primary(self, cluster):
        reference = cluster.engine.snapshot()
        router = cluster.router
        for v in range(reference.n):
            assert router.sccnt(v) == reference.sccnt(v)


class TestProtocolShape:
    def test_plain_objects_do_not_conform(self):
        class NotABackend:
            pass

        assert not isinstance(NotABackend(), QueryAPI)

    def test_counter_without_engine_conforms(self):
        counter = ShortestCycleCounter.build(make_graph())
        assert isinstance(counter, QueryAPI)
        assert counter.epoch == 0
        counter.insert_edge(0, 5)
        assert counter.epoch == 1  # applied updates bump its version

    def test_engine_snapshot_epoch_matches_protocol(self):
        engine = ServeEngine(make_graph(), config=ServeConfig(batch_size=2))
        with engine:
            snap = engine.snapshot()
            assert isinstance(snap, QueryAPI)
            assert snap.epoch == 0
