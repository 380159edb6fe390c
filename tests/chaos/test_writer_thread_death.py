"""Writer-thread death is terminal: the engine must fail fast, not
hang or keep serving as if nothing happened.

The writer is the engine's only mutator; if it dies with an
unclassifiable error, the ops it had taken and everything queued behind
them can never be applied.  The engine moves to ``failed``: reads and
writes raise typed errors naming the cause, ``flush(timeout=None)``
returns promptly instead of waiting forever, and ``stop()`` reports
the stranded ops.
"""

import time

import pytest

from repro.errors import ServiceFailedError
from repro.service import ServeConfig, ServeEngine
from tests.chaos.conftest import make_graph, wait_for

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    ),
]


def engine_with_dying_writer():
    """An engine whose writer dies on its first batch (SystemExit
    escapes every per-batch handler into the thread supervisor)."""
    engine = ServeEngine(make_graph(seed=13), ServeConfig(batch_size=4))

    def dying(ops, seq):
        raise SystemExit("simulated writer-thread death")

    engine._apply_logged = dying
    return engine


def kill_writer(engine):
    edge = next(iter(engine.counter.graph.edges()))
    engine.submit("delete", *edge)
    assert wait_for(lambda: engine.health == "failed")


class TestWriterThreadDeath:
    def test_health_and_stats_surface_the_failure(self):
        engine = engine_with_dying_writer().start()
        try:
            kill_writer(engine)
            stats = engine.stats()
            assert stats.health == "failed"
            assert stats.queue_depth == 1  # the op it took never landed
        finally:
            with pytest.raises(ServiceFailedError):
                engine.stop()

    def test_reads_raise_typed_error_with_cause(self):
        engine = engine_with_dying_writer().start()
        try:
            kill_writer(engine)
            with pytest.raises(ServiceFailedError) as exc_info:
                engine.snapshot()
            assert isinstance(exc_info.value.__cause__, SystemExit)
        finally:
            with pytest.raises(ServiceFailedError):
                engine.stop()

    def test_writes_rejected(self):
        engine = engine_with_dying_writer().start()
        try:
            kill_writer(engine)
            with pytest.raises(ServiceFailedError):
                engine.submit("insert", 0, 1)
        finally:
            with pytest.raises(ServiceFailedError):
                engine.stop()

    def test_untimed_flush_raises_promptly_instead_of_hanging(self):
        engine = engine_with_dying_writer().start()
        try:
            kill_writer(engine)
            t0 = time.monotonic()
            with pytest.raises(ServiceFailedError) as exc_info:
                engine.flush(timeout=None)
            assert time.monotonic() - t0 < 5.0
            assert "unconsumed" in str(exc_info.value)
        finally:
            with pytest.raises(ServiceFailedError):
                engine.stop()

    def test_stop_reports_stranded_ops(self):
        engine = engine_with_dying_writer().start()
        kill_writer(engine)
        with pytest.raises(ServiceFailedError) as exc_info:
            engine.stop()
        assert "unconsumed" in str(exc_info.value)
