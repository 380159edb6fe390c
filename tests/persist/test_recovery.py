"""End-to-end recovery: engine runs, dies, and comes back bit-identical.

The acknowledged-prefix contract, exercised through the real engine:
recovery must reproduce the crashed process's exact label bytes from
whatever mix of checkpoint chain and WAL suffix survived — including
torn WAL tails at *every byte boundary* (the log-layer mirror of the
PR 3 RPLS truncation suite) and a corrupted newest checkpoint.
"""

import gc
import random

import pytest

from repro.errors import RecoveryError
from repro.graph.digraph import DiGraph
from repro.persist import read_wal, recover, replay_reference
from repro.service import ServeEngine
from repro.workloads.updates import mixed_update_stream

pytestmark = pytest.mark.persist


def make_graph(seed=3, n=12, m=30):
    rng = random.Random(seed)
    g = DiGraph(n)
    while g.m < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


def run_durable(
    data_dir,
    graph,
    total_ops=40,
    *,
    checkpoint_wal_bytes=200,
    full_checkpoint_every=3,
    checkpoint_on_stop=False,
    ops_seed=5,
):
    """A durable serving run; returns the final live label bytes."""
    engine = ServeEngine(
        graph.copy(),
        batch_size=4,
        data_dir=str(data_dir),
        checkpoint_wal_bytes=checkpoint_wal_bytes,
        full_checkpoint_every=full_checkpoint_every,
        checkpoint_on_stop=checkpoint_on_stop,
    )
    engine.start()
    ops = mixed_update_stream(
        engine.counter.graph, total_ops, ops_seed, insert_fraction=0.4
    )
    engine.submit_many(ops)
    engine.flush()
    live = engine.counter.index.to_bytes()
    engine.stop()
    return live


class TestRecoverRoundtrip:
    def test_crash_style_recovery_is_bit_identical(self, tmp_path):
        live = run_durable(tmp_path, make_graph())
        result = recover(tmp_path)
        assert result.counter.index.to_bytes() == live
        assert result.records_replayed > 0  # no final checkpoint

    def test_clean_stop_skips_replay(self, tmp_path):
        live = run_durable(
            tmp_path, make_graph(), checkpoint_on_stop=True
        )
        result = recover(tmp_path)
        assert result.counter.index.to_bytes() == live
        assert result.records_replayed == 0

    def test_recovery_is_idempotent(self, tmp_path):
        run_durable(tmp_path, make_graph())
        first = recover(tmp_path)
        second = recover(tmp_path)
        assert (
            first.counter.index.to_bytes()
            == second.counter.index.to_bytes()
        )
        assert first.last_seq == second.last_seq

    def test_empty_dir_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "never-written")

    def test_counter_keeps_serving_after_recovery(self, tmp_path):
        run_durable(tmp_path, make_graph())
        counter = recover(tmp_path).counter
        # The recovered counter is live: it takes updates and queries.
        ops = mixed_update_stream(counter.graph, 6, 11)
        counter.apply_batch(ops, on_invalid="skip")
        for v in range(counter.graph.n):
            counter.count(v)


def _set_gc(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestRecoverGcState:
    """``recover()`` pauses the cyclic GC while it loads and hands the
    caller's GC state back unchanged, on success and on failure."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored(self, tmp_path, enabled):
        run_durable(tmp_path, make_graph(), total_ops=12)
        was = gc.isenabled()
        try:
            _set_gc(enabled)
            recover(tmp_path)
            assert gc.isenabled() is enabled
        finally:
            _set_gc(was)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_restored_on_recovery_error(self, tmp_path, enabled):
        was = gc.isenabled()
        try:
            _set_gc(enabled)
            with pytest.raises(RecoveryError):
                recover(tmp_path / "never-written")
            assert gc.isenabled() is enabled
        finally:
            _set_gc(was)

    def test_gc_paused_during_recovery(self, tmp_path, monkeypatch):
        import repro.persist.recovery as recovery

        run_durable(tmp_path, make_graph(), total_ops=12)
        seen = []
        replay = recovery._replay

        def spy(counter, scan):
            seen.append(gc.isenabled())
            return replay(counter, scan)

        monkeypatch.setattr(recovery, "_replay", spy)
        recover(tmp_path)
        assert seen == [False]


class TestTornWalTails:
    def test_every_byte_truncation_degrades_to_acked_prefix(
        self, tmp_path
    ):
        graph = make_graph(seed=8, n=8, m=18)
        # One segment, bootstrap checkpoint only: nothing pruned, so the
        # framed-replay reference can start from the initial graph.
        run_durable(
            tmp_path,
            graph,
            total_ops=16,
            checkpoint_wal_bytes=1 << 30,
        )
        wal_dir = tmp_path / "wal"
        seg = sorted(wal_dir.glob("wal-*.log"))[0]
        blob = seg.read_bytes()
        for cut in range(16, len(blob) + 1):
            seg.write_bytes(blob[:cut])
            scan = read_wal(wal_dir)
            result = recover(tmp_path)
            reference = replay_reference(
                graph.copy(), scan.records, aborted=scan.aborted
            )
            assert (
                result.counter.index.to_bytes()
                == reference.index.to_bytes()
            ), f"divergence at truncation {cut}"
            assert result.records_replayed == len(scan.batches())
        seg.write_bytes(blob)  # restore for tmp_path hygiene

    def test_corrupt_wal_byte_never_breaks_recovery(self, tmp_path):
        graph = make_graph(seed=9, n=8, m=18)
        run_durable(
            tmp_path, graph, total_ops=12, checkpoint_wal_bytes=1 << 30
        )
        wal_dir = tmp_path / "wal"
        seg = sorted(wal_dir.glob("wal-*.log"))[0]
        blob = bytearray(seg.read_bytes())
        rng = random.Random(0)
        offsets = rng.sample(range(16, len(blob)), min(40, len(blob) - 16))
        for i in offsets:
            corrupted = bytearray(blob)
            corrupted[i] ^= 0xFF
            seg.write_bytes(bytes(corrupted))
            scan = read_wal(wal_dir)
            result = recover(tmp_path)
            reference = replay_reference(
                graph.copy(), scan.records, aborted=scan.aborted
            )
            assert (
                result.counter.index.to_bytes()
                == reference.index.to_bytes()
            ), f"divergence with corruption at byte {i}"
        seg.write_bytes(bytes(blob))


class TestCheckpointDegradation:
    def test_corrupt_newest_checkpoint_falls_back_without_data_loss(
        self, tmp_path
    ):
        live = run_durable(tmp_path, make_graph(seed=4))
        ckpts = sorted((tmp_path / "checkpoints").glob("ckpt-*"))
        assert len(ckpts) >= 2, "scenario needs at least two checkpoints"
        tip = ckpts[-1]
        blob = bytearray(tip.read_bytes())
        blob[-1] ^= 0xFF
        tip.write_bytes(bytes(blob))
        result = recover(tmp_path)
        # Pruning lags one checkpoint generation, so the older chain
        # plus the retained WAL still covers every acknowledged record.
        assert result.counter.index.to_bytes() == live
        assert result.records_replayed > 0

    def test_missing_newest_checkpoint_falls_back(self, tmp_path):
        live = run_durable(tmp_path, make_graph(seed=6))
        ckpts = sorted((tmp_path / "checkpoints").glob("ckpt-*"))
        assert len(ckpts) >= 2
        ckpts[-1].unlink()
        result = recover(tmp_path)
        assert result.counter.index.to_bytes() == live


class TestEngineReopen:
    def test_reopen_resumes_epoch_and_state(self, tmp_path):
        graph = make_graph(seed=7)
        live = run_durable(tmp_path, graph)
        engine = ServeEngine(data_dir=str(tmp_path), batch_size=4)
        engine.start()
        try:
            assert engine.recovery is not None
            snap = engine.snapshot()
            assert snap.epoch == engine.recovery.epoch
            assert engine.counter.index.to_bytes() == live
            # And it keeps taking updates durably.
            ops = mixed_update_stream(engine.counter.graph, 8, 13)
            engine.submit_many(ops)
            engine.flush()
            continued = engine.counter.index.to_bytes()
        finally:
            engine.stop()
        assert recover(tmp_path).counter.index.to_bytes() == continued

    def test_source_is_ignored_when_dir_has_state(self, tmp_path):
        live = run_durable(tmp_path, make_graph(seed=7))
        other = make_graph(seed=99, n=20, m=40)
        engine = ServeEngine(other, data_dir=str(tmp_path))
        try:
            assert engine.counter.index.to_bytes() == live
            assert engine.counter.graph.n != other.n or (
                engine.counter.graph == recover(tmp_path).counter.graph
            )
        finally:
            if engine._writer is not None:  # pragma: no cover
                engine.stop()

    def test_fresh_dir_without_source_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ServeEngine(data_dir=str(tmp_path / "fresh"))
