"""Crash-point-injection property: recovery == acked-prefix replay.

The harness drives a :class:`DurabilityManager` plus counter through the
exact call sequence the serving engine's writer thread makes — durable
log, apply, abort-on-raise, publish-snapshot, maybe-checkpoint — with a
fault hook that kills the process (``SimulatedCrash``) at the N-th
durable I/O event.  All persist I/O is unbuffered, so the directory the
crash leaves behind is byte-for-byte what a real ``kill -9`` at that
syscall boundary would leave.

For **every** injected crash point the property must hold: recovery
yields a counter whose ``to_bytes()`` label state is bit-identical to a
serial framed replay of the *acknowledged op prefix* — every batch whose
WAL record became durable before the crash, in order, each applied as
one ``apply_batch`` with its logged policy, minus batches whose
application raised (deterministically, so replay skips them the same
way).  Torn mid-record writes, half-written checkpoints, crashes between
checkpoint rename and WAL prune: all must land on exactly that state.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counter import ShortestCycleCounter
from repro.errors import RecoveryError, ReproError
from repro.graph.digraph import DiGraph
from repro.persist import (
    DurabilityManager,
    SimulatedCrash,
    fault_scope,
    recover,
)
from repro.persist.wal import BATCH, WalRecord

pytestmark = pytest.mark.persist

N = 7  # graph size: small enough for dozens of recoveries per example


def make_graph(seed: int) -> DiGraph:
    rng = random.Random(seed)
    g = DiGraph(N)
    for _ in range(rng.randrange(4, 2 * N)):
        a, b = rng.randrange(N), rng.randrange(N)
        if a != b and not g.has_edge(a, b):
            g.add_edge(a, b)
    return g


class WriterHarness:
    """The engine writer's durability call sequence, single-threaded.

    Batches run under alternating ``on_invalid`` policies and rebuild
    thresholds (drawn by the plan), so the skip path, the abort path
    (``raise`` meeting an infeasible op), the incremental path and the
    rebuild fallback — which recovery folds into one build — all cross
    every crash point.
    """

    def __init__(self, data_dir, graph, plan):
        self.graph = graph
        self.plan = plan
        self.logged: list[WalRecord] = []
        self.aborted: set[int] = set()
        self.bootstrap_done = False
        self.manager, recovered = DurabilityManager.open(
            data_dir,
            checkpoint_wal_bytes=120,  # checkpoint every ~2 batches
            full_checkpoint_every=2,  # exercise delta AND full paths
        )
        assert recovered is None
        self.counter = ShortestCycleCounter.build(graph.copy())
        self.manager.bootstrap(self.counter)
        self.bootstrap_done = True
        self.epoch = 0
        self.consumed = 0

    def run(self) -> None:
        for ops, on_invalid, threshold in self.plan:
            seq = self.manager.log_batch(ops, on_invalid, threshold)
            self.logged.append(
                WalRecord(
                    seq=seq,
                    kind=BATCH,
                    ops=tuple(ops),
                    on_invalid=on_invalid,
                    rebuild_threshold=threshold,
                )
            )
            try:
                self.counter.apply_batch(
                    ops, rebuild_threshold=threshold, on_invalid=on_invalid
                )
            except ReproError:
                self.aborted.add(seq)
                self.manager.log_abort(seq)
                self.consumed += len(ops)
                continue
            self.epoch += 1
            self.consumed += len(ops)
            snap = self.counter.snapshot(
                epoch=self.epoch, ops_applied=self.consumed
            )
            self.manager.note_applied(seq, snap)
        self.manager.sync()
        self.manager.close()


def plan_records(batches):
    """The WAL records a crash-free run would log: seq ``i+1`` is batch
    ``i`` (sequence assignment is deterministic)."""
    return [
        WalRecord(seq=i + 1, kind=BATCH, ops=tuple(ops),
                  on_invalid=policy, rebuild_threshold=threshold)
        for i, (ops, policy, threshold) in enumerate(batches)
    ]


def reference_state(graph, records, upto_seq):
    """Serial framed replay of the durable prefix ``seq <= upto_seq``.

    No abort set is needed: a batch aborts exactly when its
    ``apply_batch`` raises, which is deterministic in the preceding
    state — so the replay's own raise-and-skip reproduces every abort,
    acked or in-flight at the crash.
    """
    counter = ShortestCycleCounter.build(graph.copy())
    for record in records:
        if record.seq > upto_seq:
            continue
        try:
            counter.apply_batch(
                list(record.ops),
                rebuild_threshold=record.rebuild_threshold,
                on_invalid=record.on_invalid,
            )
        except ReproError:
            continue  # the live run aborted this batch the same way
    return counter


def crash_run(tmp_path, tag, graph, plan, crash_at):
    """Run the harness, crashing at the ``crash_at``-th I/O event.
    Returns the harness (for its in-memory log) or raises nothing."""
    data_dir = tmp_path / f"crash-{tag}"
    events = [0]

    def hook(_tag):
        events[0] += 1
        if events[0] == crash_at:
            raise SimulatedCrash(f"at event {events[0]}")

    harness = None
    crashed = False
    with fault_scope(hook):
        try:
            harness = WriterHarness(data_dir, graph, plan)
            harness.run()
        except SimulatedCrash:
            crashed = True
    return data_dir, harness, crashed


def count_events(tmp_path, graph, plan) -> int:
    events = [0]
    with fault_scope(
        lambda _tag: events.__setitem__(0, events[0] + 1)
    ):
        harness = WriterHarness(tmp_path / "count", graph, plan)
        harness.run()
    return events[0]


@st.composite
def crash_plans(draw):
    seed = draw(st.integers(0, 2**20))
    graph = make_graph(seed)
    rng = random.Random(seed ^ 0x5EED)
    batches = []
    for _ in range(draw(st.integers(2, 5))):
        size = rng.randrange(1, 4)
        ops = []
        for _ in range(size):
            a = rng.randrange(N)
            b = rng.randrange(N - 1)
            b = b if b != a else N - 1
            ops.append((rng.choice(("insert", "delete")), a, b))
        # "raise" batches exercise the abort path when infeasible.
        policy = "raise" if rng.random() < 0.3 else "skip"
        # 0.0 sends every batch with a deletion-affected hub to the
        # rebuild fallback (folded on recovery), 10.0 none.
        threshold = draw(st.sampled_from((0.0, 0.5, 10.0)))
        batches.append((ops, policy, threshold))
    return graph, batches


@given(plan=crash_plans())
@settings(max_examples=10, deadline=None)
def test_recovery_bit_identical_at_every_crash_point(plan):
    graph, batches = plan
    with tempfile.TemporaryDirectory() as td:
        _sweep_crash_points(Path(td), graph, batches)


def _sweep_crash_points(tmp_path, graph, batches):
    total_events = count_events(tmp_path, graph, batches)
    assert total_events > 0
    records = plan_records(batches)
    reference_cache = {}
    for crash_at in range(1, total_events + 1):
        data_dir, harness, crashed = crash_run(
            tmp_path, crash_at, graph, batches, crash_at
        )
        assert crashed, f"crash point {crash_at} never fired"
        if harness is None or not harness.bootstrap_done:
            # Death during bootstrap: nothing was ever acknowledged.
            # Recovery reports "nothing to recover" — or, if the crash
            # fell between the checkpoint's atomic rename and the
            # directory fsync, the valid epoch-0 state and nothing else.
            try:
                result = recover(data_dir)
            except RecoveryError:
                continue
            assert result.last_seq == 0
            initial = ShortestCycleCounter.build(graph.copy())
            assert (
                result.counter.index.to_bytes()
                == initial.index.to_bytes()
            )
            continue
        result = recover(data_dir)
        # The durable prefix covers every record whose append returned
        # before the crash (acked), plus at most the one record that
        # was in flight when it died.
        assert len(harness.logged) <= result.last_seq
        assert result.last_seq <= len(harness.logged) + 1
        assert result.last_seq <= len(batches)
        if result.last_seq not in reference_cache:
            reference_cache[result.last_seq] = reference_state(
                graph, records, result.last_seq
            )
        reference = reference_cache[result.last_seq]
        assert (
            result.counter.index.to_bytes()
            == reference.index.to_bytes()
        ), f"crash point {crash_at}/{total_events}: recovery diverged"
        assert result.counter.graph == reference.graph


@given(plan=crash_plans())
@settings(max_examples=8, deadline=None)
def test_crash_then_reopen_then_crash_again(plan):
    """Recovery composes: crash, reopen + append more batches, crash
    again — the second recovery must equal the full framed replay."""
    graph, batches = plan
    with tempfile.TemporaryDirectory() as td:
        _reopen_scenario(Path(td), graph, batches)


def _reopen_scenario(tmp_path, graph, batches):
    mid = max(1, len(batches) // 2)
    first, second = batches[:mid], batches[mid:]

    harness = WriterHarness(tmp_path / "d", graph, first)
    harness.run()

    # Reopen (recovers) and continue with the remaining batches.
    manager, recovered = DurabilityManager.open(
        tmp_path / "d", checkpoint_wal_bytes=120, full_checkpoint_every=2
    )
    assert recovered is not None
    counter = recovered.counter
    logged = list(harness.logged)
    epoch, consumed = recovered.epoch, recovered.ops_applied
    for ops, on_invalid, threshold in second:
        seq = manager.log_batch(ops, on_invalid, threshold)
        logged.append(
            WalRecord(seq=seq, kind=BATCH, ops=tuple(ops),
                      on_invalid=on_invalid, rebuild_threshold=threshold)
        )
        try:
            counter.apply_batch(
                ops, rebuild_threshold=threshold, on_invalid=on_invalid
            )
        except ReproError:
            manager.log_abort(seq)
            consumed += len(ops)
            continue
        epoch += 1
        consumed += len(ops)
        snap = counter.snapshot(epoch=epoch, ops_applied=consumed)
        manager.note_applied(seq, snap)
    manager.close()  # abandon without sync: process-death durability

    result = recover(tmp_path / "d")
    assert result.last_seq == len(logged)
    reference = reference_state(graph, logged, result.last_seq)
    assert result.counter.index.to_bytes() == reference.index.to_bytes()


@pytest.mark.slow
@given(plan=crash_plans())
@settings(max_examples=40, deadline=None)
def test_recovery_bit_identical_every_crash_point_deep(plan):
    """Nightly-budget variant of the exhaustive crash sweep."""
    graph, batches = plan
    with tempfile.TemporaryDirectory() as td:
        _sweep_crash_points(Path(td), graph, batches)
