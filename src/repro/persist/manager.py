"""Durability orchestration: one WAL + one checkpoint store + policy.

:class:`DurabilityManager` is the single object the serving engine's
writer thread talks to.  It owns the log-before-publish discipline:

1. ``log_batch`` — durably append the batch (ops + the exact
   ``apply_batch`` framing) *before* the index is touched;
2. the engine applies the batch and publishes the epoch — at that
   moment the epoch is already reconstructible from disk;
3. ``note_applied`` — after publication, decide whether the WAL has
   grown past ``checkpoint_wal_bytes`` and, if so, write a checkpoint
   from the *published frozen snapshot*, rotate the WAL onto a fresh
   segment, and prune segments/checkpoints the new chain obsoletes.

Checkpoint kind selection: a delta when the previous checkpoint's
snapshot is available, vertex count and hub order are unchanged, and
fewer than ``full_checkpoint_every`` deltas have accumulated since the
last full; otherwise a full checkpoint.  The dirty-vertex set for a
delta is the identity diff of the two snapshots' copy-on-write label
structures — O(n) pointer compares, no label data scanned.

All methods are single-threaded by contract (the engine's writer
thread, or a recovery/test harness driving the same call sequence).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.persist.checkpoint import CheckpointStore
from repro.persist.recovery import (
    CHECKPOINT_DIR,
    WAL_DIR,
    RecoveryResult,
    recover,
)
from repro.persist.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.counter import ShortestCycleCounter
    from repro.labeling.labelstore import LabelStore
    from repro.service.snapshot import Snapshot

__all__ = ["DurabilityManager", "DurabilityStats"]

Op = tuple[str, int, int]

#: Checkpoint once the WAL grows past this many bytes (default 1 MiB).
DEFAULT_CHECKPOINT_WAL_BYTES = 1 << 20
#: Write a full checkpoint every this-many deltas (bounds chain length).
DEFAULT_FULL_CHECKPOINT_EVERY = 8


@dataclass(frozen=True)
class DurabilityStats:
    """Counters for introspection / the recovery benchmark."""

    wal_records: int = 0
    wal_bytes: int = 0
    wal_segments: int = 0
    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    last_checkpoint_seq: int = 0
    last_seq: int = 0
    #: serving-engine health state at observation time ("healthy" when
    #: read straight off a manager; the engine annotates its own view)
    health: str = "healthy"


def _dirty_vertices(prev: LabelStore, cur: LabelStore) -> list[int]:
    """Vertices whose label structures changed between two snapshots of
    the same live store, ascending.

    When ``prev`` is the snapshot taken just before ``cur``, the live
    store's epoch log answers in O(dirty)
    (:meth:`LabelStore.claimed_since`).  Otherwise — a delta checkpoint
    spanning several epochs, or a store swapped by a rebuild — it falls
    back to an O(n) scan of identity/value compares; both give the same
    list."""
    claimed = cur.claimed_since(prev)
    if claimed is not None:
        return claimed
    prev_packed, cur_packed = prev.packed, cur.packed
    prev_canon, cur_canon = prev.canon, cur.canon
    prev_big, cur_big = prev.big, cur.big
    return [
        v for v in range(len(cur_packed))
        if prev_packed[v] is not cur_packed[v]
        or prev_canon[v] != cur_canon[v]
        or prev_big[v] is not cur_big[v]
    ]


class DurabilityManager:
    """Owns a data directory's WAL and checkpoints for one engine."""

    def __init__(
        self,
        data_dir: str | Path,
        *,
        fsync: str = "always",
        checkpoint_wal_bytes: int = DEFAULT_CHECKPOINT_WAL_BYTES,
        full_checkpoint_every: int = DEFAULT_FULL_CHECKPOINT_EVERY,
    ) -> None:
        self._dir = Path(data_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._ckpts = CheckpointStore(self._dir / CHECKPOINT_DIR)
        self._wal = WriteAheadLog(self._dir / WAL_DIR, fsync=fsync)
        self._checkpoint_wal_bytes = checkpoint_wal_bytes
        self._full_every = max(1, full_checkpoint_every)
        self._next_seq = 1
        self._bytes_since_ckpt = 0
        self._deltas_since_full = 0
        self._last_ckpt_seq = 0
        # Pruning lags one checkpoint generation: WAL segments and
        # checkpoints are deleted only once a *newer* checkpoint has
        # superseded the one that covered them, so a single corrupt
        # checkpoint file can never take acknowledged records with it —
        # recovery falls back to the previous chain plus retained WAL.
        self._prev_ckpt_seq = 0
        self._last_applied_seq = 0
        # Previous checkpoint's snapshot, kept for the delta diff.
        self._parent_snapshot: Snapshot | None = None
        self._parent_order: list[int] | None = None
        self._strategy = "redundancy"
        self._closed = False

    # ------------------------------------------------------------------
    # Opening / bootstrap
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        data_dir: str | Path,
        *,
        fsync: str = "always",
        checkpoint_wal_bytes: int = DEFAULT_CHECKPOINT_WAL_BYTES,
        full_checkpoint_every: int = DEFAULT_FULL_CHECKPOINT_EVERY,
        strategy: str | None = None,
    ) -> tuple[DurabilityManager, RecoveryResult | None]:
        """Open ``data_dir``, recovering any existing state.

        Returns ``(manager, recovered)`` where ``recovered`` is ``None``
        for a fresh directory (the caller bootstraps with
        :meth:`bootstrap` before accepting updates).
        """
        data_dir = Path(data_dir)
        ckpt_dir = data_dir / CHECKPOINT_DIR
        has_checkpoints = ckpt_dir.is_dir() and any(
            ckpt_dir.glob("ckpt-*")
        )
        wal_dir = data_dir / WAL_DIR
        has_wal = wal_dir.is_dir() and any(wal_dir.glob("wal-*.log"))
        if has_wal and not has_checkpoints:
            raise RecoveryError(
                f"{data_dir}: WAL segments present but no checkpoint to "
                "replay them onto"
            )
        recovered = None
        if has_checkpoints:
            # Recover BEFORE constructing the manager: the WAL appender
            # truncates the torn tail on open, and recovery must see the
            # original files to report what was dropped.
            recovered = recover(data_dir, strategy=strategy)
        manager = cls(
            data_dir,
            fsync=fsync,
            checkpoint_wal_bytes=checkpoint_wal_bytes,
            full_checkpoint_every=full_checkpoint_every,
        )
        if recovered is not None:
            manager._next_seq = recovered.last_seq + 1
            manager._last_ckpt_seq = recovered.checkpoint_seq
            manager._prev_ckpt_seq = recovered.checkpoint_seq
            manager._last_applied_seq = recovered.last_seq
            # Seed the checkpoint trigger with post-checkpoint WAL
            # bytes only.  Segments are rotated at each checkpoint, so
            # a segment's records follow the checkpoint iff its first
            # sequence number does; the retained previous generation
            # (pruning lags one checkpoint) must not count, or every
            # restart would cut a redundant checkpoint on its first
            # batch.
            manager._bytes_since_ckpt = sum(
                p.stat().st_size
                for p in manager._wal.segments()
                if int(p.stem.split("-")[1], 16)
                > recovered.checkpoint_seq
            )
            manager._strategy = recovered.counter.strategy
        return manager, recovered

    def bootstrap(self, counter: ShortestCycleCounter) -> None:
        """Write the initial full checkpoint (epoch 0) for a fresh
        directory, so recovery always has a base to replay from."""
        self._strategy = counter.strategy
        self._ckpts.write_full(
            seq=0,
            epoch=0,
            ops_applied=0,
            strategy=counter.strategy,
            counter_blob=counter.to_bytes(),
        )
        self._parent_snapshot = counter.snapshot()
        self._parent_order = list(counter.index.order)

    # ------------------------------------------------------------------
    @property
    def data_dir(self) -> Path:
        return self._dir

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def stats(self) -> DurabilityStats:
        return DurabilityStats(
            wal_records=self._wal.records_appended,
            wal_bytes=self._wal.size_bytes(),
            wal_segments=len(self._wal.segments()),
            checkpoints_written=self._ckpts.checkpoints_written,
            checkpoint_bytes=self._ckpts.bytes_written,
            last_checkpoint_seq=self._last_ckpt_seq,
            last_seq=self._next_seq - 1,
        )

    # ------------------------------------------------------------------
    # The writer-thread protocol
    # ------------------------------------------------------------------
    def log_batch(
        self,
        ops: Sequence[Op],
        on_invalid: str,
        rebuild_threshold: float,
    ) -> int:
        """Durably log one batch before it is applied; returns its seq.

        The sequence number is consumed only when the append succeeds:
        a failed append rolls the WAL back to a valid record boundary
        (see :meth:`WriteAheadLog._append`) and the number is reissued
        to the next batch, so the log never develops a gap that would
        make recovery discard later acknowledged records.
        """
        seq = self._next_seq
        written = self._wal.append_batch(
            seq, ops, on_invalid=on_invalid,
            rebuild_threshold=rebuild_threshold,
        )
        self._next_seq += 1
        self._bytes_since_ckpt += written
        return seq

    def log_abort(self, seq: int) -> None:
        """Record that batch ``seq``'s application raised (the engine
        kept its pre-batch state; recovery will skip the batch)."""
        self._bytes_since_ckpt += self._wal.append_abort(seq)

    def note_applied(self, seq: int, snapshot: Snapshot) -> bool:
        """Called after batch ``seq`` was applied *and* its epoch
        published; checkpoints when the WAL has grown enough.  Returns
        whether a checkpoint was written."""
        self._last_applied_seq = seq
        if self._bytes_since_ckpt < self._checkpoint_wal_bytes:
            return False
        self.checkpoint_now(snapshot)
        return True

    def checkpoint_now(self, snapshot: Snapshot) -> None:
        """Write a checkpoint of ``snapshot`` (writer thread only: the
        live graph must still equal the snapshot's capture state, which
        holds exactly between batches)."""
        index = snapshot.index
        seq = self._last_applied_seq
        parent = self._parent_snapshot
        # A delta needs a parent snapshot to diff against, a bounded
        # chain length, and an unchanged vertex population + hub order
        # (add_vertex or a rebuild with a new order would invalidate
        # per-vertex patching).
        incremental = (
            parent is not None
            and self._deltas_since_full + 1 < self._full_every
            and len(parent.index.store_in) == len(index.store_in)
            and self._parent_order == index.order
        )
        if incremental:
            self._ckpts.write_delta(
                seq=seq,
                epoch=snapshot.epoch,
                ops_applied=snapshot.ops_applied,
                strategy=self._strategy,
                parent_seq=self._last_ckpt_seq,
                graph=index.graph,
                store_in=index.store_in,
                store_out=index.store_out,
                dirty_in=_dirty_vertices(
                    parent.index.store_in, index.store_in
                ),
                dirty_out=_dirty_vertices(
                    parent.index.store_out, index.store_out
                ),
            )
            self._deltas_since_full += 1
        else:
            from repro.core.counter import ShortestCycleCounter

            self._ckpts.write_full(
                seq=seq,
                epoch=snapshot.epoch,
                ops_applied=snapshot.ops_applied,
                strategy=self._strategy,
                # Wrap the snapshot's (frozen) index in a counter facade
                # so the canonical to_bytes framing is the only encoder
                # of full-checkpoint payloads.
                counter_blob=ShortestCycleCounter(
                    index, self._strategy
                ).to_bytes(),
            )
            self._deltas_since_full = 0
        prune_seq = self._prev_ckpt_seq
        self._prev_ckpt_seq = self._last_ckpt_seq
        self._last_ckpt_seq = seq
        self._parent_snapshot = snapshot
        self._parent_order = list(index.order)
        self._wal.rotate()
        self._wal.prune_segments_through(prune_seq)
        self._ckpts.prune(prune_seq)
        self._bytes_since_ckpt = 0

    def maybe_final_checkpoint(self, snapshot: Snapshot) -> bool:
        """Checkpoint on clean shutdown, but only when the WAL advanced
        past the last checkpoint (restart then skips replay entirely)."""
        if self._last_applied_seq <= self._last_ckpt_seq:
            return False
        self.checkpoint_now(snapshot)
        return True

    def sync(self) -> None:
        """Force-flush the WAL (used on engine stop)."""
        self._wal.sync()

    def close(self) -> None:
        if not self._closed:
            self._wal.close()
            self._closed = True
