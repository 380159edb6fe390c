"""Unit tests for the parallel builder: worker-count policy, pool
lifecycle, crash surfacing, and the public ``workers=`` entry points."""

import pytest

from repro.build import (
    ENV_WORKERS,
    BuildPool,
    build_label_tables,
    resolve_workers,
    shutdown_pool,
)
from repro.build.worker import (
    check_kind,
    extend_tables_from_rpls,
    tables_to_rpls,
)
from repro.core.csc import CSCIndex
from repro.errors import BuildError, WorkerCrashError
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.ordering import degree_order, positions
from tests.conftest import random_digraph


@pytest.fixture
def graph():
    return random_digraph(40, 160, seed=21)


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "7")
        assert resolve_workers(2) == 2

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "3")
        assert resolve_workers(None) == 3

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers(None) == 1

    def test_bad_env_raises_build_error(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "many")
        with pytest.raises(BuildError, match="must be an integer"):
            resolve_workers(None)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_daemonic_process_forces_serial(self, monkeypatch):
        # A daemonic process (cluster replica, pool worker) cannot have
        # children, so no env var or explicit argument may route it to
        # the pool.  Regression: the forkserver captures the environment
        # of whichever process starts it first, so a replica forked
        # later can inherit REPRO_BUILD_WORKERS it never asked for.
        import types

        monkeypatch.setenv(ENV_WORKERS, "4")
        monkeypatch.setattr(
            "repro.build.parallel.multiprocessing.current_process",
            lambda: types.SimpleNamespace(daemon=True),
        )
        assert resolve_workers(None) == 1
        assert resolve_workers(4) == 1


class TestKernels:
    def test_unknown_kind_rejected(self, graph):
        with pytest.raises(ValueError, match="unknown index kind"):
            check_kind("prefix-tree")
        order = degree_order(graph)
        with pytest.raises(ValueError, match="unknown index kind"):
            build_label_tables(
                graph, order, positions(order), "prefix-tree", workers=1
            )

    def test_rpls_roundtrip_preserves_sparse_tables(self):
        tables = [[], [(0, 2, 3, True)], [], [(1, 4, 1, False)], []]
        blob = tables_to_rpls(tables)
        local = [[] for _ in range(5)]
        assert extend_tables_from_rpls(blob, local) == 2
        assert local == tables

    def test_rpls_extend_rejects_size_mismatch(self):
        blob = tables_to_rpls([[], []])
        with pytest.raises(ValueError, match="vertices"):
            extend_tables_from_rpls(blob, [[]])


class TestPublicEntryPoints:
    def test_csc_build_env_default_is_parallel_and_identical(
        self, graph, monkeypatch
    ):
        serial = CSCIndex.build(graph, workers=1)
        monkeypatch.setenv(ENV_WORKERS, "2")
        par = CSCIndex.build(graph)
        assert par.to_bytes() == serial.to_bytes()

    def test_hpspc_build_workers_identical(self, graph):
        serial = HPSPCIndex.build(graph, workers=1)
        par = HPSPCIndex.build(graph, workers=2)
        assert par.to_bytes() == serial.to_bytes()

    def test_rebuild_fallback_uses_workers(self, graph):
        """apply_batch's rebuild fallback accepts a worker count and
        stays bit-identical to the serial fallback."""
        from repro.core.batch import apply_batch

        order = degree_order(graph)
        ops = [("delete", a, b) for a, b in list(graph.edges())[:12]]
        serial_idx = CSCIndex.build(graph.copy(), order)
        serial_stats = apply_batch(serial_idx, ops, rebuild_threshold=0.0)
        par_idx = CSCIndex.build(graph.copy(), order)
        par_stats = apply_batch(
            par_idx, ops, rebuild_threshold=0.0, workers=2
        )
        assert serial_stats.rebuilt and par_stats.rebuilt
        assert par_idx.to_bytes() == serial_idx.to_bytes()

    def test_build_stats_accounting(self, graph):
        order = degree_order(graph)
        pos = positions(order)
        label_in, label_out, stats = build_label_tables(
            graph, order, pos, "csc", workers=2,
            serial_prefix=4, wave_base=8,
        )
        assert stats.workers == 2
        assert stats.serial_hubs == 4
        assert stats.parallel_hubs == graph.n - 4
        assert stats.waves >= 1
        assert stats.broadcast_bytes > 0
        assert stats.entries == (
            sum(len(e) for e in label_in)
            + sum(len(e) for e in label_out)
        )
        assert 0.0 <= stats.conflict_fraction <= 1.0


class TestWorkerCrashSurfacing:
    def test_hard_death_raises_worker_crash_error(self, graph):
        pool = BuildPool(1)
        try:
            pool.init_build(graph, positions(degree_order(graph)), "csc")
            pool._send(0, ("_test", "exit"))
            with pytest.raises(WorkerCrashError, match="died unexpectedly"):
                pool.run_wave([[(10, degree_order(graph)[10])]])
        finally:
            pool.shutdown()

    def test_worker_exception_ships_traceback(self, graph):
        pool = BuildPool(1)
        try:
            pool.init_build(graph, positions(degree_order(graph)), "csc")
            pool._send(0, ("_test", "raise"))
            with pytest.raises(BuildError, match="injected worker failure"):
                pool.run_wave([[(10, degree_order(graph)[10])]])
        finally:
            pool.shutdown()

    def test_pool_recovers_after_crash(self, graph, monkeypatch):
        """A dead worker in the shared pool must not poison later
        builds: the pool is detected as dead and recreated."""
        import repro.build.parallel as parallel

        serial = CSCIndex.build(graph, workers=1)
        assert CSCIndex.build(graph, workers=2).to_bytes() == \
            serial.to_bytes()
        pool = parallel._POOL
        assert pool is not None and pool.size == 2
        pool._procs[0].terminate()
        pool._procs[0].join(timeout=10)
        assert not pool.alive()
        rebuilt = CSCIndex.build(graph, workers=2)
        assert rebuilt.to_bytes() == serial.to_bytes()

    def test_shutdown_pool_idempotent(self):
        shutdown_pool()
        shutdown_pool()


class TestConcurrentBuilds:
    def test_threaded_builds_share_pool_without_corruption(self):
        """Two threads building through the shared pool at once (the
        serve writer's rebuild fallback can race a foreground build)
        must serialize on the pool lock, not interleave pipe traffic."""
        graphs = [random_digraph(30, 110, seed=40 + i) for i in range(4)]
        serial = [CSCIndex.build(g, workers=1).to_bytes() for g in graphs]
        results: dict[int, bytes] = {}
        errors: list[BaseException] = []

        def build_one(i: int) -> None:
            try:
                results[i] = CSCIndex.build(
                    graphs[i], workers=2
                ).to_bytes()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        import threading

        threads = [
            threading.Thread(target=build_one, args=(i,))
            for i in range(len(graphs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        assert [results[i] for i in range(len(graphs))] == serial
