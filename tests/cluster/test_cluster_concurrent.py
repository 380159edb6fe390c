"""Clustered serving under concurrent load (lockdep-instrumented job).

The differential contract, now across process boundaries: reader
threads hammering the *router* while the primary drains a mixed update
stream must (a) never see the consistency floor move backwards, (b) end
bit-identical — every replica-published epoch digest equal to the
primary's, and the final routed answers equal to a strictly serial
replay of the admitted ops.
"""

import random

import pytest

from repro.cluster import Cluster
from repro.graph.digraph import DiGraph
from repro.service import DurabilityConfig, ServeConfig
from repro.service.driver import drive_mixed, serial_replay
from repro.workloads.updates import mixed_update_stream

pytestmark = [pytest.mark.concurrency, pytest.mark.persist]


def make_graph(seed=21, n=16, m=44):
    rng = random.Random(seed)
    g = DiGraph(n)
    while g.m < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


class TestClusteredDrive:
    def test_differential_routed_reads_vs_serial_replay(self, tmp_path):
        graph = make_graph()
        initial = graph.copy()
        cluster = Cluster(
            graph,
            ServeConfig(
                batch_size=4,
                durability=DurabilityConfig(
                    data_dir=str(tmp_path), checkpoint_on_stop=False,
                ),
            ),
            replicas=2,
        )
        try:
            cluster.start()
            ops = mixed_update_stream(
                cluster.engine.counter.graph, 30, 12
            )
            result = drive_mixed(
                cluster.engine,
                ops,
                readers=2,
                query_backend=cluster.router,
            )
            # Reader threads asserted the router's min-epoch floor never
            # went backwards; any violation lands in result.errors.
            assert result.errors == []
            cluster.wait_for_epoch(result.final.epoch)
            cluster.verify_replicas()
            # Answer-level differential vs strictly serial replay (the
            # batched path guarantees identical *answers*; its internal
            # label bytes may differ from serial framing)...
            reference = serial_replay(initial, ops)
            routed = cluster.router
            for v in range(reference.graph.n):
                assert routed.sccnt(v) == reference.sccnt(v)
            # ...and byte-level bit-identity vs the primary itself.
            expected = cluster.engine.counter.to_bytes()
            for client in cluster.router.live():
                assert client.state_bytes() == expected
        finally:
            cluster.stop()

    def test_lag_is_bounded_and_reaches_zero(self, tmp_path):
        cluster = Cluster(
            make_graph(seed=23),
            ServeConfig(
                batch_size=2,
                durability=DurabilityConfig(
                    data_dir=str(tmp_path), checkpoint_on_stop=False,
                ),
            ),
            replicas=2,
        )
        try:
            cluster.start()
            cluster.wait_for_epoch(cluster.flush().epoch)
            samples = []
            for op, tail, head in mixed_update_stream(
                cluster.engine.counter.graph, 20, 8
            ):
                cluster.submit(op, tail, head)
                samples.append(cluster.router.lag())
            final = cluster.flush()
            cluster.wait_for_epoch(final.epoch)
            # Mid-stream lag is a small non-negative epoch count...
            for sample in samples:
                for value in sample.values():
                    assert value is not None and value >= 0
            # ...and once the stream drains, every replica catches up.
            assert all(
                value == 0 for value in cluster.router.lag().values()
            )
        finally:
            cluster.stop()
