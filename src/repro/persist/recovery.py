"""Crash recovery: checkpoint + WAL suffix → a serving-ready counter.

``recover`` opens a durability directory, materializes the newest valid
checkpoint chain, truncates/ignores any torn WAL tail, and replays the
acknowledged record suffix with the framing the live engine used: each
WAL record is planned with :func:`~repro.core.batch.plan_batch` under
its own op list, ``on_invalid`` policy and rebuild threshold.

* A record the plan sends to the rebuild fallback is **folded**: its
  edge changes go straight into the graph and the labels are marked
  pending.  A build reads only the graph and the vertex order, and the
  plan reads no label, so a run of such records needs one build, not
  one each.
* Any other record first builds the pending labels (the same
  :func:`~repro.core.batch.rebuild_labels` call as the fallback), then
  runs through ``apply_batch`` as the live engine did.
* Labels still pending at the end of the scan are built once.

Because each step is deterministic in its inputs, the recovered label
bytes are bit-identical to the state the crashed process held at its
last durable record, and to :func:`replay_reference`'s serial
one-``apply_batch``-per-record replay of the whole acknowledged prefix —
the property the crash injection suite machine-checks.

Replay mirrors the live engine's failure semantics: a record marked by
an ``ABORT`` is skipped, and so is a record whose plan or
``apply_batch`` raises a deterministic library error — the live engine
kept its pre-batch state when the same exception fired, and its
``ABORT`` marker may simply not have reached the disk before the crash.
Any other exception (a bug, ``MemoryError``) says nothing about the
batch, so it propagates out of :func:`recover` rather than silently
dropping an acknowledged batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.build import paused_gc
from repro.core.batch import BatchStats, plan_batch
from repro.core.counter import ShortestCycleCounter
from repro.core.csc import CSCIndex
from repro.errors import RecoveryError, ReproError
from repro.graph.digraph import DiGraph
from repro.labeling.ordering import positions
from repro.persist.checkpoint import CheckpointStore
from repro.persist.wal import BATCH, WalRecord, WalScan, read_wal

__all__ = ["RecoveryResult", "recover", "replay_reference"]

#: Subdirectory names inside a durability data dir.
WAL_DIR = "wal"
CHECKPOINT_DIR = "checkpoints"


@dataclass
class RecoveryResult:
    """What :func:`recover` reconstructed, plus how it got there."""

    #: the recovered counter, ready to serve or to adopt into an engine
    counter: ShortestCycleCounter
    #: last WAL sequence number folded into the counter
    last_seq: int
    #: publication epoch the counter corresponds to
    epoch: int
    #: total update ops consumed up to this state (checkpoint + replay)
    ops_applied: int
    #: sequence number of the checkpoint the replay started from
    checkpoint_seq: int
    #: epoch recorded in that checkpoint
    checkpoint_epoch: int
    #: files in the resolved checkpoint chain (1 = full only)
    checkpoint_chain_length: int
    #: WAL batch records applied on top of the checkpoint (folded
    #: rebuild-bound records included)
    records_replayed: int
    #: update ops inside those records
    ops_replayed: int
    #: records skipped because they were aborted or raised on replay
    records_skipped: int
    #: torn/corrupt WAL tail bytes discarded
    torn_bytes_dropped: int
    #: label builds replay ran — one per run of consecutive folded
    #: rebuild-bound records
    rebuilds: int = 0


def _replay_record(
    counter: ShortestCycleCounter, record: WalRecord
) -> bool:
    """Apply one batch record; ``False`` when it (deterministically)
    raises, mirroring the live engine's abort path."""
    try:
        counter.apply_batch(
            list(record.ops),
            rebuild_threshold=record.rebuild_threshold,
            on_invalid=record.on_invalid,
        )
        return True
    except ReproError:
        return False


@dataclass
class _Replay:
    """Tallies of one :func:`_replay` scan."""

    #: records applied, folded ones included
    replayed: int = 0
    ops_replayed: int = 0
    skipped: int = 0
    #: label builds run for folded records
    rebuilds: int = 0


def _replay(counter: ShortestCycleCounter, scan: WalScan) -> _Replay:
    """Apply ``scan``'s batch records to ``counter``, folding each run of
    rebuild-bound records into the graph and building once for it."""
    tally = _Replay()
    graph = counter.graph
    # stats of the records folded into the graph since the last build
    folded: BatchStats | None = None

    def build_folded() -> None:
        nonlocal folded
        counter.rebuild_in_place(folded)
        tally.rebuilds += 1
        folded = None

    for record in scan.records:
        if record.kind != BATCH:
            continue
        if record.seq in scan.aborted:
            tally.skipped += 1
            continue
        try:
            plan = plan_batch(
                graph, record.ops, record.on_invalid,
                record.rebuild_threshold,
            )
        except ReproError:
            tally.skipped += 1
            continue
        if plan.rebuild:
            plan.apply_edges(graph)
            if folded is None:
                folded = BatchStats(strategy=counter.strategy)
                folded.details["folded_records"] = 0
            folded.details["folded_records"] += 1
            folded.submitted += plan.stats.submitted
            folded.inserted += plan.stats.inserted
            folded.deleted += plan.stats.deleted
            folded.skipped += plan.stats.skipped
            folded.cancelled += plan.stats.cancelled
        else:
            if folded is not None:
                build_folded()
            if not _replay_record(counter, record):
                tally.skipped += 1
                continue
        tally.replayed += 1
        tally.ops_replayed += len(record.ops)
    if folded is not None:
        build_folded()
    return tally


def recover(
    data_dir: str | Path, strategy: str | None = None
) -> RecoveryResult:
    """Reconstruct the last acknowledged state from ``data_dir``.

    Raises :class:`~repro.errors.RecoveryError` when the directory holds
    no recoverable state (no valid checkpoint chain).  ``strategy``
    overrides the insertion-maintenance strategy recorded in the
    checkpoint (leave ``None`` to keep what the data was written with).
    """
    # Recovery allocates a large number of long-lived but acyclic label
    # containers; pause the cyclic GC for the duration.
    with paused_gc():
        return _recover(Path(data_dir), strategy)


def _recover(data_dir: Path, strategy: str | None) -> RecoveryResult:
    state = CheckpointStore(data_dir / CHECKPOINT_DIR).materialize()
    if state is None:
        raise RecoveryError(
            f"{data_dir}: no valid checkpoint chain to recover from"
        )
    index = CSCIndex(
        state.graph,
        state.order,
        positions(state.order),
        state.store_in,
        state.store_out,
    )
    counter = ShortestCycleCounter(index, strategy or state.strategy)

    scan = read_wal(data_dir / WAL_DIR, after_seq=state.seq)
    consumed = sum(
        len(r.ops) for r in scan.records if r.kind == BATCH
    )
    tally = _replay(counter, scan)
    # Resume sequence numbering after the highest *logged* record —
    # aborted numbers included — so no seq is ever reused.
    last_seq = scan.records[-1].seq if scan.records else state.seq
    return RecoveryResult(
        counter=counter,
        last_seq=last_seq,
        epoch=state.epoch + tally.replayed,
        ops_applied=state.ops_applied + consumed,
        checkpoint_seq=state.seq,
        checkpoint_epoch=state.epoch,
        checkpoint_chain_length=state.chain_length,
        records_replayed=tally.replayed,
        ops_replayed=tally.ops_replayed,
        records_skipped=tally.skipped,
        rebuilds=tally.rebuilds,
        torn_bytes_dropped=scan.torn_bytes,
    )


def replay_reference(
    initial_graph: DiGraph,
    records: list[WalRecord],
    strategy: str = "redundancy",
    aborted: set[int] | None = None,
) -> ShortestCycleCounter:
    """The recovery correctness oracle: a *fresh* counter built over the
    pre-durability graph with every acknowledged record applied serially
    under identical framing — one ``apply_batch`` per record, each
    rebuild fallback run where it fell, nothing folded.

    :func:`recover` must land on bit-identical ``to_bytes()`` label
    state no matter which checkpoint chain and WAL suffix it took, and
    however many rebuild-bound records it folded into one build — that
    is the crash-recovery contract the property suite verifies at every
    injected crash point.
    """
    aborted = aborted or set()
    counter = ShortestCycleCounter.build(initial_graph, strategy=strategy)
    for record in records:
        if record.kind != BATCH or record.seq in aborted:
            continue
        _replay_record(counter, record)
    return counter
