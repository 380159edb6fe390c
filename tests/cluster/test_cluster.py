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

import glob
import os
import random
import signal
import threading
import time

import pytest

from repro.cluster import Cluster, ReplicaClient
from repro.cluster.image import ImageReader, ImageWriter, new_image_path
from repro.cluster.replica import replica_main
from repro.core.counter import ShortestCycleCounter
from repro.errors import (
    BatchVertexError,
    ClusterError,
    ConfigurationError,
    NoReplicaAvailableError,
    ReplicaUnavailableError,
    VertexError,
)
from repro.graph.digraph import DiGraph
from repro.persist import WriteAheadLog, recover
from repro.persist.recovery import WAL_DIR
from repro.service import DurabilityConfig, ServeConfig, ServeEngine
from repro.workloads.updates import mixed_update_stream

from tests.test_large_counts import diamond_chain

pytestmark = pytest.mark.persist


def make_graph(seed=0, n=14, m=36):
    rng = random.Random(seed)
    g = DiGraph(n)
    while g.m < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


def cluster_config(data_dir, batch_size=4, **durability):
    return ServeConfig(
        batch_size=batch_size,
        durability=DurabilityConfig(data_dir=str(data_dir), **durability),
    )


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
            # The killed replica could not delete its image; its client
            # did, on the read that found it dead.
            assert not os.path.exists(victim._image.path)
            # Kill the survivor: the router has nowhere left to route.
            survivor = cluster.router.live()[0]
            survivor._process.terminate()
            survivor._process.join(5)
            with pytest.raises(NoReplicaAvailableError):
                for _ in range(4):
                    cluster.router.sccnt(0)
            with pytest.raises(NoReplicaAvailableError):
                cluster.router.epoch
            assert not os.path.exists(survivor._image.path)

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


def leftover_images():
    """Image files this test process's clusters left behind."""
    base = os.path.dirname(new_image_path("probe"))
    return glob.glob(os.path.join(base, f"repro-image-{os.getpid()}-*"))


class TestRoutedReads:
    """Routed reads are joins over each replica's mapped label image."""

    @pytest.mark.parametrize("saturated", [False, True],
                             ids=["random", "saturated"])
    def test_routed_answers_equal_the_primary_at_every_epoch(
        self, tmp_path, saturated
    ):
        """Over 22 epoch flips of a seeded mixed stream — one of them a
        deletion batch bound for the rebuild fallback — all five routed
        reads equal the primary's snapshot of the same epoch."""
        if saturated:
            graph, s, t = diamond_chain(26)
            graph.add_edge(t, s)
        else:
            graph = make_graph(seed=13, n=20, m=60)
        n = graph.n
        cluster = Cluster(
            graph, cluster_config(tmp_path, batch_size=64),
            replicas=1, record_digests=False,
        )
        rng = random.Random(5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        with cluster:
            router = cluster.router
            for flip in range(22):
                if flip == 11:
                    edges = sorted(cluster.engine.counter.graph.edges())
                    ops = [("delete", a, b) for a, b in edges[::3]]
                elif flip:
                    ops = mixed_update_stream(
                        cluster.engine.counter.graph, 3, flip
                    )
                else:
                    ops = []
                cluster.submit_many(ops)
                snap = cluster.flush()
                cluster.wait_for_epoch(snap.epoch)
                assert router.sccnt_many(range(n)) == snap.sccnt_many(
                    range(n)
                )
                assert [router.sccnt(v) for v in range(n)] == [
                    snap.sccnt(v) for v in range(n)
                ]
                assert [router.spcnt(x, y) for x, y in pairs] == [
                    snap.spcnt(x, y) for x, y in pairs
                ]
                assert router.spcnt_many(pairs) == snap.spcnt_many(pairs)
                assert router.top_suspicious(5) == snap.top_suspicious(5)
                if saturated and flip == 0:
                    assert router.sccnt(s) == (2**26, 2 * 26 + 1)
            assert cluster.engine.stats().rebuilds >= 1
            for bad in (-1, n):
                with pytest.raises(VertexError, match=str(bad)):
                    router.sccnt(bad)
                with pytest.raises(VertexError):
                    router.spcnt(0, bad)
            with pytest.raises(BatchVertexError) as err:
                router.sccnt_many([0, n, 1, -1])
            assert err.value.bad == [(1, n), (3, -1)]
            with pytest.raises(BatchVertexError) as err:
                router.spcnt_many([(0, 1), (n, 0)])
            assert err.value.bad == [(1, n)]

    def test_no_image_outlives_stop(self, tmp_path):
        cluster = Cluster(
            make_graph(), cluster_config(tmp_path), replicas=2,
            record_digests=False,
        )
        with cluster:
            cluster.wait_for_epoch(cluster.flush().epoch)
            for v in range(4):
                cluster.router.sccnt(v)
            paths = [c._image.path for c in cluster.router.live()]
            assert all(os.path.exists(p) for p in paths)
        assert not any(os.path.exists(p) for p in paths)
        assert leftover_images() == []

    def test_no_image_outlives_a_failed_start(self, tmp_path, monkeypatch):
        """The second replica cannot start: ``start`` raises, and the
        first replica's image goes with the rest of the cluster."""
        import repro.cluster.cluster as cluster_module

        made = []

        def second_fails(tag):
            if made:
                raise OSError("no room for a second replica")
            made.append(new_image_path(tag))
            return made[-1]

        monkeypatch.setattr(cluster_module, "new_image_path", second_fails)
        cluster = Cluster(
            make_graph(), cluster_config(tmp_path), replicas=2,
            record_digests=False,
        )
        with pytest.raises(OSError, match="no room"):
            cluster.start()
        assert len(made) == 1
        assert not os.path.exists(made[0])
        assert leftover_images() == []


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
            config=ServeConfig(
                batch_size=2,
                durability=DurabilityConfig(
                    data_dir=str(tmp_path), checkpoint_wal_bytes=64,
                    full_checkpoint_every=4, checkpoint_on_stop=False,
                ),
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
            config=ServeConfig(
                batch_size=2,
                durability=DurabilityConfig(
                    data_dir=str(tmp_path), checkpoint_on_stop=False,
                ),
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

    def test_reads_never_see_the_diverged_image(
        self, tmp_path, monkeypatch
    ):
        """A re-bootstrap withdraws the diverged image before recovery
        starts: a read arriving meanwhile waits for the next image and
        answers from the recovered state."""
        import repro.cluster.replica as replica_module

        recovered = seed_dir(tmp_path)
        baseline = recovered.counter
        n = baseline.graph.n
        conn, thread = run_replica_in_thread(tmp_path)
        process = ThreadProcess(thread)
        client = ReplicaClient(conn, process, "replica-t", image_of(tmp_path))
        reader = ImageReader(image_of(tmp_path))
        try:
            assert client.status()["epoch"] == recovered.epoch
            seq = recovered.last_seq + 1
            wal = WriteAheadLog(tmp_path / WAL_DIR)
            wal.append_batch(seq, (("insert", 1, 11),))
            wait_until(
                lambda: client.status()["epoch"] == recovered.epoch + 1
            )
            diverged = client.spcnt(1, 11)
            assert diverged == (1, 1)
            assert diverged != baseline.spcnt(1, 11)

            entered, release = threading.Event(), threading.Event()
            original = replica_module.recover

            def held_recover(*args, **kwargs):
                entered.set()
                assert release.wait(10), "recovery held for 10 s"
                return original(*args, **kwargs)

            monkeypatch.setattr(replica_module, "recover", held_recover)
            wal.append_abort(seq)
            wal.close()
            assert entered.wait(10)
            # Mid re-bootstrap: nothing is served...
            assert reader.current() is None
            answers = []
            waiting = threading.Thread(
                target=lambda: answers.append(client.spcnt(1, 11))
            )
            waiting.start()
            waiting.join(0.3)
            assert waiting.is_alive() and answers == []
            # ...until the recovered state is published.
            release.set()
            waiting.join(10)
            assert answers == [baseline.spcnt(1, 11)]
            assert client.sccnt_many(range(n)) == baseline.sccnt_many(
                range(n)
            )
            assert client.status()["resyncs"] == 1
            assert reader.current().epoch == recovered.epoch
        finally:
            client.stop()
        assert not thread.is_alive()
        assert not os.path.exists(image_of(tmp_path))
        os.close(process.sentinel)
        os.close(process._keep)


def image_of(data_dir):
    """Where a thread-hosted replica of ``data_dir`` keeps its image."""
    return str(data_dir / "replica.image")


class ThreadProcess:
    """The ``Process`` surface a :class:`ReplicaClient` uses, for a
    replica run in a thread: its sentinel never signals an exit."""

    def __init__(self, thread):
        self._thread = thread
        self.sentinel, self._keep = os.pipe()
        self.pid = os.getpid()

    def is_alive(self):
        return self._thread.is_alive()

    def join(self, timeout=None):
        self._thread.join(timeout)

    def terminate(self):  # pragma: no cover - the thread always stops
        pass


def run_replica_in_thread(data_dir, errors=None):
    """An in-process replica (same loop, same pipe protocol, same image
    file) so a test can interleave WAL writes with its progress
    deterministically.  With ``errors``, an exception that ends the loop
    is appended there."""
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
        args=(child, str(data_dir), image_of(data_dir)),
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


def seed_dir(tmp_path):
    """A durable directory one batch past its bootstrap; returns its
    recovery, against which a hand-written next WAL record can land."""
    engine = ServeEngine(
        make_graph(seed=9),
        config=cluster_config(tmp_path, batch_size=1),
    )
    with engine:
        engine.submit("insert", 0, 9)
        engine.flush()
    return recover(tmp_path)


def hold(monkeypatch, cls, name):
    """Patch method ``cls.name`` to block until released; returns the
    ``(entered, release)`` events."""
    entered, release = threading.Event(), threading.Event()
    original = getattr(cls, name)

    def held(self, *args, **kwargs):
        entered.set()
        assert release.wait(10), f"{name} held for 10 s"
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, held)
    return entered, release


class TestApplyThread:
    """Queries are answered by their own thread while the apply thread
    is inside a batch; an epoch appears only with its snapshot."""

    def append_next(self, tmp_path, recovered):
        wal = WriteAheadLog(tmp_path / WAL_DIR)
        wal.append_batch(recovered.last_seq + 1, (("insert", 1, 11),))
        wal.close()

    def test_reads_are_answered_during_an_apply(
        self, tmp_path, monkeypatch
    ):
        recovered = seed_dir(tmp_path)
        conn, thread = run_replica_in_thread(tmp_path)
        reader = ImageReader(image_of(tmp_path))
        try:
            assert rpc(conn, "status")["epoch"] == recovered.epoch
            entered, release = hold(
                monkeypatch, ShortestCycleCounter, "apply_batch"
            )
            try:
                self.append_next(tmp_path, recovered)
                assert entered.wait(10)
                for v in range(recovered.counter.graph.n):
                    image = reader.current()
                    assert image.epoch == recovered.epoch
                    assert image.sccnt(v) == recovered.counter.count(v)
                status = rpc(conn, "status", timeout=1.0)
                assert status["epoch"] == recovered.epoch
                assert status["last_seq"] == recovered.last_seq
            finally:
                release.set()
            wait_until(
                lambda: rpc(conn, "status")["epoch"]
                == recovered.epoch + 1
            )
            after = recover(tmp_path).counter
            assert rpc(conn, "state_bytes") == after.to_bytes()
            image = reader.current()
            assert image.epoch == recovered.epoch + 1
            assert image.sccnt_many(range(after.graph.n)) == [
                after.count(v) for v in range(after.graph.n)
            ]
        finally:
            rpc(conn, "stop")
            thread.join(10)
        assert not thread.is_alive()
        assert not os.path.exists(image_of(tmp_path))

    def test_status_epoch_never_runs_ahead_of_the_image(
        self, tmp_path, monkeypatch
    ):
        """Once ``status`` reports epoch ``e``, a mapped read answers at
        ``e`` or later: the image is published before the epoch is."""
        recovered = seed_dir(tmp_path)
        conn, thread = run_replica_in_thread(tmp_path)
        reader = ImageReader(image_of(tmp_path))
        try:
            assert rpc(conn, "status")["epoch"] == recovered.epoch
            entered, release = hold(monkeypatch, ImageWriter, "publish")
            try:
                self.append_next(tmp_path, recovered)
                assert entered.wait(10)
                # apply_batch has returned; only the image is held.
                assert rpc(conn, "status", timeout=1.0)["epoch"] == (
                    recovered.epoch
                )
                assert reader.current().epoch == recovered.epoch
            finally:
                release.set()
            deadline = time.monotonic() + 10
            while True:
                epoch = rpc(conn, "status")["epoch"]
                assert reader.current().epoch >= epoch
                if epoch == recovered.epoch + 1:
                    break
                assert time.monotonic() < deadline, "epoch never moved"
        finally:
            rpc(conn, "stop")
            thread.join(10)

    def test_epoch_is_not_published_before_its_snapshot(
        self, tmp_path, monkeypatch
    ):
        recovered = seed_dir(tmp_path)
        conn, thread = run_replica_in_thread(tmp_path)
        try:
            assert rpc(conn, "status")["epoch"] == recovered.epoch
            entered, release = hold(
                monkeypatch, ShortestCycleCounter, "snapshot"
            )
            try:
                self.append_next(tmp_path, recovered)
                assert entered.wait(10)
                # apply_batch has returned; only the capture is held.
                status = rpc(conn, "status", timeout=1.0)
                assert status["epoch"] == recovered.epoch
                assert status["ops_applied"] == recovered.ops_applied
            finally:
                release.set()
            wait_until(
                lambda: rpc(conn, "status")["epoch"]
                == recovered.epoch + 1
            )
            digests = rpc(conn, "digests")
            assert sorted(digests) == [
                recovered.epoch, recovered.epoch + 1
            ]
        finally:
            rpc(conn, "stop")
            thread.join(10)
        assert not thread.is_alive()

    def test_stop_during_an_apply_joins_the_apply_thread(
        self, tmp_path, monkeypatch
    ):
        recovered = seed_dir(tmp_path)
        conn, thread = run_replica_in_thread(tmp_path)
        assert rpc(conn, "status")["epoch"] == recovered.epoch
        entered, release = hold(
            monkeypatch, ShortestCycleCounter, "apply_batch"
        )
        try:
            self.append_next(tmp_path, recovered)
            assert entered.wait(10)
            conn.send(("stop",))
            # stop replies only once the apply thread has finished.
            assert not conn.poll(0.3)
        finally:
            release.set()
        assert conn.poll(10), "stop never answered"
        reply, final = conn.recv()
        assert reply == "ok"
        assert final["epoch"] == recovered.epoch + 1
        thread.join(10)
        assert not thread.is_alive()
        assert not any(
            t.name == "repro-replica-apply" for t in threading.enumerate()
        )


class TestAbortHandling:
    seed_dir = staticmethod(seed_dir)

    def test_deterministic_failures_skip_in_lockstep(self, tmp_path):
        """A batch that fails deterministically (poisoned on the
        primary, quarantined) fails identically on the replica: both
        skip it, no epoch drifts, no resync is needed."""
        cluster = Cluster(
            make_graph(seed=11),
            ServeConfig(
                batch_size=1, on_invalid="raise", on_poison="quarantine",
                durability=DurabilityConfig(data_dir=str(tmp_path)),
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

    def test_unexpected_error_is_not_a_skip(self, tmp_path, monkeypatch):
        """A non-library error says nothing about the batch, so the
        replica must not skip the record and publish past it as if it
        had failed deterministically: the replica loop ends instead."""
        recovered = self.seed_dir(tmp_path)
        errors = []
        conn, thread = run_replica_in_thread(tmp_path, errors)
        assert rpc(conn, "status")["epoch"] == recovered.epoch

        def crash(self, *args, **kwargs):
            raise RuntimeError("apply interrupted")

        monkeypatch.setattr(ShortestCycleCounter, "apply_batch", crash)
        wal = WriteAheadLog(tmp_path / WAL_DIR)
        wal.append_batch(recovered.last_seq + 1, (("insert", 1, 11),))
        wal.close()
        thread.join(10)
        assert not thread.is_alive()
        assert [type(exc) for exc in errors] == [RuntimeError]

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
