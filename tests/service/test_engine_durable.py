"""ServeEngine durability wiring: log-before-publish, aborts, stats."""

import random
import threading

import pytest

from repro.errors import EdgeExistsError
from repro.graph.digraph import DiGraph
from repro.persist import read_wal, recover
from repro.persist.wal import ABORT, BATCH
from repro.service import DurabilityConfig, ServeConfig, ServeEngine
from repro.workloads.updates import mixed_update_stream

pytestmark = pytest.mark.persist


def make_graph(seed=0, n=10, m=24):
    rng = random.Random(seed)
    g = DiGraph(n)
    while g.m < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


class TestDurableEngine:
    def test_every_published_epoch_has_a_durable_record(self, tmp_path):
        engine = ServeEngine(
            make_graph(), batch_size=1, data_dir=str(tmp_path),
            checkpoint_on_stop=False,
        )
        with engine:
            ops = mixed_update_stream(engine.counter.graph, 8, 3)
            engine.submit_many(ops)
            engine.flush()
            epochs = engine.stats().epoch
        scan = read_wal(tmp_path / "wal")
        batch_records = [r for r in scan.records if r.kind == BATCH]
        assert len(batch_records) == epochs == len(ops)

    def test_records_carry_engine_framing(self, tmp_path):
        engine = ServeEngine(
            make_graph(), batch_size=64, data_dir=str(tmp_path),
            rebuild_threshold=0.75, on_invalid="skip",
            checkpoint_on_stop=False,
        )
        with engine:
            ops = mixed_update_stream(engine.counter.graph, 6, 4)
            engine.submit_many(ops)
            engine.flush()
        scan = read_wal(tmp_path / "wal")
        record = next(r for r in scan.records if r.kind == BATCH)
        assert record.on_invalid == "skip"
        assert record.rebuild_threshold == 0.75
        assert set(record.ops) <= set(ops)

    def test_failed_batch_writes_abort_record(self, tmp_path):
        graph = make_graph(seed=2)
        existing = next(iter(graph.edges()))
        engine = ServeEngine(
            graph, batch_size=4, data_dir=str(tmp_path),
            on_invalid="raise", on_poison="fail",
            checkpoint_on_stop=False,
        )
        engine.start()
        live_before = engine.counter.index.to_bytes()
        # Inserting a present edge raises under on_invalid="raise".
        engine.submit("insert", *existing)
        with pytest.raises(EdgeExistsError):
            engine.flush()
        engine.stop()
        scan = read_wal(tmp_path / "wal")
        assert [r.kind for r in scan.records] == [BATCH, ABORT]
        # Recovery skips the aborted batch: state unchanged.
        result = recover(tmp_path)
        assert result.counter.index.to_bytes() == live_before
        assert result.records_skipped == 1

    def test_publish_callback_failure_still_recovers_applied_state(
        self, tmp_path
    ):
        calls = []

        def boom(snap):
            calls.append(snap.epoch)
            if len(calls) == 2:  # fail on the first post-start publish
                raise RuntimeError("observer died")

        engine = ServeEngine(
            make_graph(seed=5), batch_size=64, data_dir=str(tmp_path),
            on_publish=boom, checkpoint_on_stop=False,
        )
        engine.start()
        ops = mixed_update_stream(engine.counter.graph, 4, 7)
        engine.submit_many(ops)
        with pytest.raises(RuntimeError):
            engine.flush()
        # The batch applied before the callback failed; the live index
        # advanced past the (never-swapped) published snapshot.
        live = engine.counter.index.to_bytes()
        engine.stop()
        assert recover(tmp_path).counter.index.to_bytes() == live

    def test_durability_stats_exposed_and_survive_stop(self, tmp_path):
        engine = ServeEngine(
            make_graph(seed=6), batch_size=4, data_dir=str(tmp_path)
        )
        with engine:
            ops = mixed_update_stream(engine.counter.graph, 12, 9)
            engine.submit_many(ops)
            engine.flush()
            during = engine.durability_stats()
            assert during is not None and during.wal_records > 0
        after = engine.durability_stats()
        assert after is not None
        assert after.wal_records >= during.wal_records

    def test_durability_stats_waits_for_the_durability_lock(
        self, tmp_path
    ):
        """The stats list WAL segments, which the writer rotates under
        ``_dur_lock``; a reader must not list them mid-rotation."""
        engine = ServeEngine(
            make_graph(seed=6),
            config=ServeConfig(
                durability=DurabilityConfig(data_dir=str(tmp_path))
            ),
        )
        with engine:
            engine.submit_many(
                mixed_update_stream(engine.counter.graph, 4, 1)
            )
            engine.flush()
            stats = []
            reader = threading.Thread(
                target=lambda: stats.append(engine.durability_stats())
            )
            with engine._dur_lock:
                reader.start()
                reader.join(0.3)
                assert reader.is_alive() and stats == []
            reader.join(10)
            assert not reader.is_alive()
            assert stats[0] is not None and stats[0].wal_records > 0

    def test_no_data_dir_means_no_durability(self, tmp_path):
        engine = ServeEngine(make_graph(seed=7))
        with engine:
            assert engine.durability_stats() is None
            assert engine.recovery is None

    def test_wal_fsync_off_still_process_crash_safe(self, tmp_path):
        engine = ServeEngine(
            make_graph(seed=8), batch_size=4, data_dir=str(tmp_path),
            wal_fsync="off", checkpoint_on_stop=False,
        )
        with engine:
            ops = mixed_update_stream(engine.counter.graph, 10, 2)
            engine.submit_many(ops)
            engine.flush()
            live = engine.counter.index.to_bytes()
        assert recover(tmp_path).counter.index.to_bytes() == live

    def test_checkpoint_on_stop_makes_restart_replay_free(self, tmp_path):
        engine = ServeEngine(
            make_graph(seed=9), batch_size=4, data_dir=str(tmp_path),
            checkpoint_on_stop=True,
        )
        with engine:
            ops = mixed_update_stream(engine.counter.graph, 10, 5)
            engine.submit_many(ops)
            engine.flush()
        result = recover(tmp_path)
        assert result.records_replayed == 0

    def test_recovered_epoch_continues_monotonically(self, tmp_path):
        engine = ServeEngine(
            make_graph(seed=10), batch_size=1, data_dir=str(tmp_path)
        )
        with engine:
            ops = mixed_update_stream(engine.counter.graph, 5, 1)
            engine.submit_many(ops)
            first_epoch = engine.flush().epoch
        engine2 = ServeEngine(data_dir=str(tmp_path), batch_size=1)
        with engine2:
            assert engine2.snapshot().epoch == first_epoch
            ops2 = mixed_update_stream(engine2.counter.graph, 3, 2)
            engine2.submit_many(ops2)
            assert engine2.flush().epoch == first_epoch + len(ops2)

    def test_conflicting_strategy_on_resume_is_an_error(self, tmp_path):
        engine = ServeEngine(
            make_graph(seed=11), data_dir=str(tmp_path),
            strategy="redundancy",
        )
        with engine:
            pass
        # Resuming under the recorded strategy (explicit or default) is
        # fine; an explicit conflicting one must raise, not be dropped.
        ServeEngine(data_dir=str(tmp_path), strategy="redundancy").stop()
        ServeEngine(data_dir=str(tmp_path)).stop()
        with pytest.raises(ValueError):
            ServeEngine(data_dir=str(tmp_path), strategy="minimality")
