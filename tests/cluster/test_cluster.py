"""The sharded serving tier: replication, bit-identity, failover, resync.

The cluster's whole claim is one sentence: every epoch a replica
publishes is bit-identical to the primary's state at that epoch.  These
tests machine-check it through the per-epoch SHA-256 digest ledger (both
sides hash ``counter.to_bytes()``), through direct ``state_bytes``
comparison, and through the failure paths — a replica that falls behind
a prune horizon or applies a batch the primary aborted must notice and
re-bootstrap from the primary's durable truth rather than keep serving
a state the primary never had.
"""

import os
import random
import signal
import threading
import time

import pytest

from repro.cluster import Cluster
from repro.cluster.replica import replica_main
from repro.core.counter import ShortestCycleCounter
from repro.errors import (
    ClusterError,
    ConfigurationError,
    NoReplicaAvailableError,
    ReplicaUnavailableError,
    WorkerCrashError,
)
from repro.graph.digraph import DiGraph
from repro.persist import WriteAheadLog, recover
from repro.persist.recovery import WAL_DIR
from repro.service import ServeConfig, ServeEngine
from repro.workloads.updates import mixed_update_stream

pytestmark = pytest.mark.persist


def make_graph(seed=0, n=14, m=36):
    rng = random.Random(seed)
    g = DiGraph(n)
    while g.m < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


def cluster_config(data_dir, **flat):
    flat.setdefault("batch_size", 4)
    return ServeConfig.from_kwargs(data_dir=str(data_dir), **flat)


class TestClusterBasics:
    def test_requires_durability(self):
        with pytest.raises(ConfigurationError, match="data_dir"):
            Cluster(make_graph(), ServeConfig(), replicas=1)
        with pytest.raises(ConfigurationError, match="replicas"):
            Cluster(
                make_graph(),
                cluster_config("/tmp/never-used"),
                replicas=0,
            )

    def test_every_replica_epoch_is_bit_identical(self, tmp_path):
        cluster = Cluster(
            make_graph(), cluster_config(tmp_path), replicas=2
        )
        with cluster:
            ops = mixed_update_stream(
                cluster.engine.counter.graph, 16, 8
            )
            cluster.submit_many(ops)
            final = cluster.flush()
            cluster.wait_for_epoch(final.epoch)
            checked = cluster.verify_replicas()
            assert set(checked) == {"replica-0", "replica-1"}
            assert all(count >= 1 for count in checked.values())
            # Belt and braces: the full serialized state agrees too.
            expected = cluster.engine.counter.to_bytes()
            for client in cluster.router.live():
                assert client.state_bytes() == expected

    def test_router_load_balances_and_reports_lag(self, tmp_path):
        cluster = Cluster(
            make_graph(), cluster_config(tmp_path), replicas=2,
            record_digests=False,
        )
        with cluster:
            final = cluster.flush()
            cluster.wait_for_epoch(final.epoch)
            for v in range(cluster.engine.counter.graph.n):
                assert cluster.router.sccnt(v) == final.sccnt(v)
            # Both replicas served some share of the round robin.
            statuses = [c.status() for c in cluster.router.live()]
            assert len(statuses) == 2
            lag = cluster.router.lag()
            assert all(value == 0 for value in lag.values())
            status = cluster.status()
            assert status["primary"]["health"] == "healthy"
            assert all(
                entry["state"] == "healthy"
                for entry in status["replicas"].values()
            )

    def test_failover_and_exhaustion(self, tmp_path):
        cluster = Cluster(
            make_graph(), cluster_config(tmp_path), replicas=2,
            record_digests=False, replica_timeout=5.0,
        )
        with cluster:
            final = cluster.flush()
            cluster.wait_for_epoch(final.epoch)
            victim = cluster.router.live()[0]
            victim._process.terminate()
            victim._process.join(5)
            # Every query keeps getting answered by the survivor.
            for v in range(6):
                assert cluster.router.sccnt(v) == final.sccnt(v)
            assert len(cluster.router.live()) == 1
            assert cluster.router.failovers >= 1
            assert cluster.router.lag()[victim.name] is None
            # Direct calls to the failed client raise the typed error.
            with pytest.raises(ReplicaUnavailableError):
                victim.sccnt(0)
            # Kill the survivor: the router has nowhere left to route.
            survivor = cluster.router.live()[0]
            survivor._process.terminate()
            survivor._process.join(5)
            with pytest.raises(NoReplicaAvailableError):
                for _ in range(4):
                    cluster.router.sccnt(0)
            with pytest.raises(NoReplicaAvailableError):
                cluster.router.epoch

    def test_start_twice_and_stop_idempotent(self, tmp_path):
        cluster = Cluster(
            make_graph(), cluster_config(tmp_path), replicas=1,
            record_digests=False,
        )
        cluster.start()
        with pytest.raises(ClusterError):
            cluster.start()
        cluster.stop()
        cluster.stop()  # idempotent

    def test_router_before_start_raises(self, tmp_path):
        cluster = Cluster(
            make_graph(), cluster_config(tmp_path), replicas=1
        )
        with pytest.raises(ClusterError):
            cluster.router


class TestDeltaChainBootstrap:
    def test_replica_bootstraps_from_mid_chain_delta(self, tmp_path):
        """A replica joining an aged directory recovers through a
        full+delta checkpoint chain plus a WAL suffix — the exact PR 4
        path — and still answers bit-identically."""
        graph = make_graph(seed=5)
        # Age the directory: tiny checkpoint budget forces checkpoints,
        # small full cadence makes most of them deltas; skipping the
        # stop checkpoint leaves a live WAL suffix to stream.
        engine = ServeEngine(
            graph,
            config=ServeConfig.from_kwargs(
                data_dir=str(tmp_path), batch_size=2,
                checkpoint_wal_bytes=64, full_checkpoint_every=4,
                checkpoint_on_stop=False,
            ),
        )
        with engine:
            engine.submit_many(
                mixed_update_stream(engine.counter.graph, 24, 10)
            )
            engine.flush()
        # A second session with a lazy checkpoint budget appends records
        # past the last checkpoint, so recovery (and a replica
        # bootstrap) must replay a WAL suffix on top of the delta chain.
        engine = ServeEngine(
            config=ServeConfig.from_kwargs(
                data_dir=str(tmp_path), batch_size=2,
                checkpoint_on_stop=False,
            ),
        )
        with engine:
            engine.submit_many(
                mixed_update_stream(engine.counter.graph, 6, 2)
            )
            engine.flush()
        aged = recover(tmp_path)
        assert aged.checkpoint_chain_length > 1  # mid-chain delta
        assert aged.records_replayed > 0  # plus a live WAL suffix

        cluster = Cluster(
            config=cluster_config(tmp_path, checkpoint_on_stop=False),
            replicas=1,
        )
        with cluster:
            final = cluster.flush()
            cluster.wait_for_epoch(final.epoch)
            cluster.verify_replicas()
            expected = cluster.engine.counter.to_bytes()
            assert cluster.router.live()[0].state_bytes() == expected


class TestResync:
    def test_replica_rebootstraps_after_prune_outruns_tailer(
        self, tmp_path
    ):
        """Freeze a replica (SIGSTOP), drive the primary through enough
        checkpoint/prune cycles that the frozen cursor's WAL segment is
        deleted, then resume it: the tailer's gap error must trigger a
        checkpoint re-bootstrap, after which the replica converges and
        its digests still verify."""
        cluster = Cluster(
            make_graph(seed=7),
            cluster_config(
                tmp_path, batch_size=1, checkpoint_wal_bytes=1
            ),
            replicas=1,
        )
        with cluster:
            first = cluster.flush()
            cluster.wait_for_epoch(first.epoch)
            client = cluster.router.live()[0]
            pid = client.status()["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                # checkpoint_wal_bytes=1: every batch checkpoints and
                # rotates, so the prune horizon races far past the
                # frozen replica's cursor.
                ops = mixed_update_stream(
                    cluster.engine.counter.graph, 10, 4
                )
                cluster.submit_many(ops)
                final = cluster.flush()
            finally:
                os.kill(pid, signal.SIGCONT)
            cluster.wait_for_epoch(final.epoch)
            assert client.status()["resyncs"] >= 1
            cluster.verify_replicas()
            assert (
                client.state_bytes()
                == cluster.engine.counter.to_bytes()
            )


def run_replica_in_thread(data_dir, errors=None):
    """An in-process replica (same loop, same pipe protocol) so a test
    can interleave WAL writes with its progress deterministically.
    With ``errors``, an exception that ends the loop is appended there."""
    import multiprocessing

    def run(*args, **kwargs):
        try:
            replica_main(*args, **kwargs)
        except Exception as exc:
            if errors is None:
                raise
            errors.append(exc)

    parent, child = multiprocessing.Pipe()
    thread = threading.Thread(
        target=run,
        args=(child, str(data_dir)),
        kwargs={"record_digests": True},
        daemon=True,
    )
    thread.start()
    return parent, thread


def rpc(conn, *request, timeout=10.0):
    conn.send(request)
    assert conn.poll(timeout), f"replica did not answer {request}"
    status, *payload = conn.recv()
    assert status == "ok", payload
    return payload[0]


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestAbortHandling:
    def seed_dir(self, tmp_path):
        engine = ServeEngine(
            make_graph(seed=9),
            config=ServeConfig.from_kwargs(
                data_dir=str(tmp_path), batch_size=1
            ),
        )
        with engine:
            engine.submit("insert", 0, 9)
            engine.flush()
        return recover(tmp_path)

    def test_deterministic_failures_skip_in_lockstep(self, tmp_path):
        """A batch that fails deterministically (poisoned on the
        primary, quarantined) fails identically on the replica: both
        skip it, no epoch drifts, no resync is needed."""
        cluster = Cluster(
            make_graph(seed=11),
            cluster_config(
                tmp_path, batch_size=1, on_invalid="raise",
                on_poison="quarantine",
            ),
            replicas=1,
        )
        with cluster:
            # Let the replica finish bootstrapping first so the records
            # below arrive through the live tail, not the bootstrap.
            cluster.wait_for_epoch(cluster.flush().epoch)
            graph = cluster.engine.counter.graph
            existing = next(iter(graph.edges()))
            missing = next(
                (a, b)
                for a in range(graph.n)
                for b in range(graph.n)
                if a != b and not graph.has_edge(a, b)
            )
            cluster.submit("insert", *existing)  # poison: must raise
            cluster.submit("insert", *missing)
            cluster.submit("delete", *missing)
            final = cluster.flush()
            assert cluster.engine.stats().quarantined == 1
            cluster.wait_for_epoch(final.epoch)
            client = cluster.router.live()[0]
            status = client.status()
            assert status["resyncs"] == 0
            assert status["records_skipped"] == 1
            assert status["epoch"] == final.epoch
            cluster.verify_replicas()

    def test_worker_crash_is_not_a_skip(self, tmp_path, monkeypatch):
        """A build-worker crash is transient — the primary retries the
        batch — so the replica must not skip the record and publish
        past it as if it had failed deterministically: the replica
        loop ends instead."""
        recovered = self.seed_dir(tmp_path)
        errors = []
        conn, thread = run_replica_in_thread(tmp_path, errors)
        assert rpc(conn, "status")["epoch"] == recovered.epoch

        def crash(self, *args, **kwargs):
            raise WorkerCrashError("worker 1 died with exit code -9")

        monkeypatch.setattr(ShortestCycleCounter, "apply_batch", crash)
        wal = WriteAheadLog(tmp_path / WAL_DIR)
        wal.append_batch(recovered.last_seq + 1, (("insert", 1, 11),))
        wal.close()
        thread.join(10)
        assert not thread.is_alive()
        assert [type(exc) for exc in errors] == [WorkerCrashError]

    def test_abort_of_an_applied_record_forces_rebootstrap(
        self, tmp_path
    ):
        """The divergence case: the replica successfully applied a
        batch the primary then aborted (nondeterministic primary-side
        failure).  The ABORT is the signal that every state since is
        not the primary's — the replica must re-bootstrap from the
        checkpoint, landing on the state that skips the aborted record."""
        recovered = self.seed_dir(tmp_path)
        baseline = recovered.counter.to_bytes()
        conn, thread = run_replica_in_thread(tmp_path)
        try:
            start = rpc(conn, "status")
            assert start["resyncs"] == 0
            # Hand-write the next WAL record: a perfectly applicable
            # batch the primary will later declare rolled back.
            seq = recovered.last_seq + 1
            wal = WriteAheadLog(tmp_path / WAL_DIR)
            wal.append_batch(seq, (("insert", 1, 11),))
            wait_until(
                lambda: rpc(conn, "status")["epoch"]
                == recovered.epoch + 1
            )
            assert rpc(conn, "state_bytes") != baseline
            wal.append_abort(seq)
            wal.close()
            wait_until(lambda: rpc(conn, "status")["resyncs"] == 1)
            # Re-bootstrapped state skips the aborted record entirely.
            wait_until(lambda: rpc(conn, "state_bytes") == baseline)
            assert rpc(conn, "status")["epoch"] == recovered.epoch
            # The digest ledger restarted from the recovered lineage:
            # nothing from the divergent branch survives.
            digests = rpc(conn, "digests")
            assert list(digests) == [recovered.epoch]
        finally:
            rpc(conn, "stop")
            thread.join(10)
