"""Poison-batch quarantine: one bad batch must not take the service
down.

Under ``on_invalid="raise"`` a presence conflict makes ``apply_batch``
raise deterministically — the batch is poison: retrying cannot help and
recovery replay would raise identically.  The default ``on_poison=
"quarantine"`` policy WAL-aborts the record, appends the batch to the
dead-letter log, and lets the writer resume the stream; ``on_poison=
"fail"`` keeps the pre-quarantine sticky-failure semantics.
"""

import threading

import pytest

from repro.errors import EdgeExistsError, ServiceFailedError
from repro.graph.digraph import DiGraph
from repro.persist import read_dead_letters, read_wal, recover
from repro.persist.wal import ABORT, BATCH
from repro.service import ServeEngine
from repro.service.driver import serial_replay
from tests.chaos.conftest import make_graph

# Deliberately killed writer threads surface through the engine API,
# not through pytest's thread-exception hook.
pytestmark = [
    pytest.mark.chaos,
    pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    ),
]


def poison_op(graph: DiGraph):
    """Inserting an already-present edge raises under ``raise``."""
    tail, head = next(iter(graph.edges()))
    return ("insert", tail, head)


def fresh_edge(graph: DiGraph):
    return fresh_edge_excluding(graph, set())


def fresh_edge_excluding(graph: DiGraph, taken):
    n = graph.n
    for a in range(n):
        for b in range(n):
            op = ("insert", a, b)
            if a != b and not graph.has_edge(a, b) and op not in taken:
                return op
    raise AssertionError("graph is complete")


class TestQuarantine:
    def test_poison_batch_quarantined_and_stream_resumes(self):
        graph = make_graph(seed=3)
        bad = poison_op(graph)
        good = fresh_edge(graph)
        with ServeEngine(
            graph, batch_size=1, on_invalid="raise"
        ) as engine:
            engine.submit(*bad)
            engine.submit(*good)
            snap = engine.flush()  # must NOT raise: poison is contained
            assert engine.health == "healthy"
        letters = engine.quarantined()
        assert len(letters) == 1
        assert letters[0].ops == (bad,)
        assert letters[0].on_invalid == "raise"
        assert "EdgeExistsError" in letters[0].error
        stats = engine.stats()
        assert stats.quarantined == 1
        assert stats.ops_consumed == 2
        # The good op landed in a published epoch after the poison one.
        assert snap.count is not None and stats.epoch == 1

    def test_whole_batch_is_the_quarantine_unit(self):
        # apply_batch is atomic-on-raise: ops batched with the poison
        # one are quarantined alongside it.  The writer is stalled in
        # the first batch's publish callback while the poison batch is
        # queued, so it drains as one batch, deterministically.
        graph = make_graph(seed=4)
        bad = poison_op(graph)
        good, later = fresh_edge(graph), None
        stalled, release = threading.Event(), threading.Event()

        def stall(snap):
            if snap.epoch == 1:
                stalled.set()
                assert release.wait(10.0)

        engine = ServeEngine(
            graph, batch_size=8, on_invalid="raise", on_publish=stall
        )
        with engine:
            engine.submit(*good)
            assert stalled.wait(10.0)
            later = fresh_edge_excluding(graph, {good})
            engine.submit(*later)
            engine.submit(*bad)
            release.set()
            engine.flush()
        letters = engine.quarantined()
        assert len(letters) == 1
        assert letters[0].ops == (later, bad)
        assert engine.stats().epoch == 1  # poison batch never published

    def test_on_poison_fail_keeps_sticky_semantics(self):
        graph = make_graph(seed=5)
        engine = ServeEngine(
            graph, batch_size=1, on_invalid="raise", on_poison="fail"
        )
        with engine:
            engine.submit(*poison_op(graph))
            with pytest.raises(EdgeExistsError):
                engine.flush()
        assert engine.quarantined() == ()

    def test_non_durable_engine_has_no_dead_letter_path(self):
        engine = ServeEngine(make_graph(), on_invalid="raise")
        assert engine.dead_letter_path is None


class TestDurableQuarantine:
    def test_dead_letter_log_round_trips(self, tmp_path):
        graph = make_graph(seed=6)
        bad = poison_op(graph)
        engine = ServeEngine(
            graph, batch_size=1, on_invalid="raise",
            data_dir=str(tmp_path), checkpoint_on_stop=False,
        )
        with engine:
            engine.submit(*bad)
            engine.flush()
        letters = read_dead_letters(engine.dead_letter_path)
        assert len(letters) == 1
        assert letters[0].ops == (bad,)
        assert letters[0].seq == 1
        assert letters[0].on_invalid == "raise"
        assert "EdgeExistsError" in letters[0].error

    def test_quarantined_batch_is_wal_aborted_and_skipped(self, tmp_path):
        graph = make_graph(seed=7)
        bad = poison_op(graph)
        good = fresh_edge(graph)
        engine = ServeEngine(
            graph, batch_size=1, on_invalid="raise",
            data_dir=str(tmp_path), checkpoint_on_stop=False,
        )
        with engine:
            engine.submit(*bad)
            engine.submit(*good)
            engine.flush()
        scan = read_wal(tmp_path / "wal")
        kinds = [r.kind for r in scan.records]
        assert kinds == [BATCH, ABORT, BATCH]
        assert scan.aborted == {1}
        # Recovery lands exactly on the serial replay WITHOUT the
        # quarantined batch.
        result = recover(tmp_path)
        reference = serial_replay(make_graph(seed=7), [good])
        assert (
            result.counter.index.to_bytes()
            == reference.index.to_bytes()
        )
        assert result.records_skipped == 1
        assert result.ops_applied == 2  # consumed ops, incl. quarantined

    def test_reopened_engine_resumes_past_quarantine(self, tmp_path):
        graph = make_graph(seed=8)
        bad = poison_op(graph)
        engine = ServeEngine(
            graph, batch_size=1, on_invalid="raise",
            data_dir=str(tmp_path), checkpoint_on_stop=False,
        )
        with engine:
            engine.submit(*bad)
            engine.flush()
        reopened = ServeEngine(
            data_dir=str(tmp_path), on_invalid="raise",
            checkpoint_on_stop=False,
        )
        with reopened:
            good = fresh_edge(reopened.counter.graph)
            reopened.submit(*good)
            snap = reopened.flush()
        assert reopened.failure is None
        # Cumulative op count: the quarantined op counts as consumed
        # (it was acknowledged-then-skipped), plus the new good op.
        assert snap.ops_applied == 2

    def test_failed_engine_write_rejection_names_cause(self):
        # Quarantine never fires for unclassifiable errors: those stay
        # sticky, and a dead writer rejects writes with the cause.
        graph = make_graph(seed=9)
        engine = ServeEngine(graph, batch_size=1)
        engine.start()

        def die(ops, seq):
            raise SystemExit("boom")

        engine._apply_logged = die
        op = fresh_edge(graph)
        engine.submit(*op)
        with pytest.raises(ServiceFailedError):
            engine.flush(timeout=10.0)
        with pytest.raises(ServiceFailedError):
            engine.stop()
