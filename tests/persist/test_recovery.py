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

from repro.core.counter import ShortestCycleCounter
from repro.core.csc import CSCIndex
from repro.errors import RecoveryError, ReproError
from repro.graph.digraph import DiGraph
from repro.persist import (
    DurabilityManager,
    read_wal,
    recover,
    replay_reference,
)
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


def log_and_apply(data_dir, graph, batches):
    """Drive a durability manager the way the engine's writer does —
    log, apply, abort on raise — with no checkpoint past the bootstrap,
    so every record stays in the replayed suffix.  Returns the live
    counter and each record's :class:`BatchStats` (``None`` when
    aborted)."""
    manager, recovered = DurabilityManager.open(
        data_dir, checkpoint_wal_bytes=1 << 30
    )
    assert recovered is None
    counter = ShortestCycleCounter.build(graph.copy())
    manager.bootstrap(counter)
    outcomes = []
    for epoch, (ops, on_invalid, threshold) in enumerate(batches, 1):
        seq = manager.log_batch(ops, on_invalid, threshold)
        try:
            stats = counter.apply_batch(
                ops, rebuild_threshold=threshold, on_invalid=on_invalid
            )
        except ReproError:
            manager.log_abort(seq)
            outcomes.append(None)
            continue
        outcomes.append(stats)
        manager.note_applied(seq, counter.snapshot(epoch=epoch))
    manager.sync()
    manager.close()
    return counter, outcomes


def folding_wal(data_dir):
    """A WAL of six records: rebuild, rebuild, incremental deletion,
    aborted, ``on_invalid="skip"``, rebuild.  Returns the initial graph
    and the live counter."""
    graph = make_graph(seed=3, n=12, m=30)
    edges = sorted(graph.edges())
    absent = next(
        (a, b) for a in range(12) for b in range(12)
        if a != b and not graph.has_edge(a, b)
    )
    batches = [
        ([("delete", *edges[0])], "raise", 0.0),
        ([("delete", *edges[1]), ("insert", *absent)], "raise", 0.0),
        ([("delete", *edges[2])], "raise", 10.0),
        ([("delete", *edges[0])], "raise", 0.0),  # already gone: aborts
        ([("insert", *edges[3]), ("delete", *edges[4])], "skip", 10.0),
        ([("delete", *edges[5])], "raise", 0.0),
    ]
    live, outcomes = log_and_apply(data_dir, graph, batches)
    assert [s is not None and s.rebuilt for s in outcomes] == [
        True, True, False, False, False, True,
    ]
    assert outcomes[3] is None and outcomes[4].skipped
    assert outcomes[2].repair_bfs_count > 0
    return graph, live


class TestFoldedReplay:
    """Rebuild-bound records fold into the graph; one build per run."""

    def test_mixed_wal_matches_serial_replay_with_two_builds(
        self, tmp_path, monkeypatch
    ):
        graph, live = folding_wal(tmp_path)
        scan = read_wal(tmp_path / "wal")
        reference = replay_reference(
            graph.copy(), scan.records, aborted=scan.aborted
        )
        builds = []
        build = CSCIndex.build

        def counting_build(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(CSCIndex, "build", counting_build)
        result = recover(tmp_path)
        assert result.counter.to_bytes() == reference.to_bytes()
        assert result.counter.to_bytes() == live.to_bytes()
        assert len(builds) == 2
        assert result.rebuilds == 2
        assert result.records_replayed == 5
        assert result.records_skipped == 1
        assert result.epoch == 5
        folded = [
            rec.details["folded_records"]
            for rec in result.counter.update_log if rec.rebuilt
        ]
        assert folded == [2, 1]

    def test_unexpected_error_in_a_folded_build_propagates(
        self, tmp_path, monkeypatch
    ):
        graph, _live = folding_wal(tmp_path)
        scan = read_wal(tmp_path / "wal")
        reference = replay_reference(
            graph.copy(), scan.records, aborted=scan.aborted
        )
        build = CSCIndex.build
        crashes = []

        def crash_once(*args, **kwargs):
            if not crashes:
                crashes.append(args)
                raise RuntimeError("build interrupted")
            return build(*args, **kwargs)

        monkeypatch.setattr(CSCIndex, "build", crash_once)
        # A non-library error says nothing about the batch: recovery
        # must fail rather than return a state that silently lacks the
        # folded, acknowledged records.
        with pytest.raises(RuntimeError, match="build interrupted"):
            recover(tmp_path)
        assert crashes
        result = recover(tmp_path)
        assert result.counter.to_bytes() == reference.to_bytes()

    def test_unexpected_error_in_a_replayed_batch_propagates(
        self, tmp_path, monkeypatch
    ):
        folding_wal(tmp_path)  # record 3 replays through apply_batch

        def crash(self, *args, **kwargs):
            raise RuntimeError("apply interrupted")

        monkeypatch.setattr(ShortestCycleCounter, "apply_batch", crash)
        with pytest.raises(RuntimeError, match="apply interrupted"):
            recover(tmp_path)
