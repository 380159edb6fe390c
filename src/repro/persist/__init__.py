"""Durable serving: write-ahead log + incremental checkpoints.

The serving engine of :mod:`repro.service` is fast but amnesiac — before
this package, process death lost the index and every acknowledged
update, and a restart on a large graph meant a full rebuild.  The
durability layer turns it into a restartable service::

    data_dir/
      wal/
        wal-<first_seq>.log       append-only, CRC-framed batch records
      checkpoints/
        ckpt-<seq>.full           graph + whole index (RPCI/RPLS blobs)
        ckpt-<seq>.delta          graph + dirty-vertex label patches

The contract, end to end:

* **log-before-publish** — the writer durably appends a batch's ops
  (with the exact ``apply_batch`` framing) *before* applying them, so
  every published epoch is reconstructible from disk;
* **fsync-batched acks** — one WAL record (and one ``fsync`` under the
  default policy) covers a whole maintenance batch, amortizing the
  flush over up to ``batch_size`` ops;
* **incremental checkpoints** — written from published frozen
  snapshots, reusing the RPLS per-vertex memcpy serialization; the
  dirty set falls out of the copy-on-write snapshot machinery as an
  O(n) identity diff, so a checkpoint costs one memcpy per *changed*
  vertex, and the writer never stalls readers;
* **total recovery** — :func:`~repro.persist.recovery.recover` loads
  the newest valid checkpoint chain, discards any torn WAL tail at the
  last valid record, replays the acknowledged suffix with identical
  framing — each run of rebuild-bound batches folded into the graph
  and built once, every other batch through ``apply_batch`` — and
  lands bit-identically on the crashed process's last durable state.
"""

from repro.persist.checkpoint import (
    CheckpointMeta,
    CheckpointState,
    CheckpointStore,
)
from repro.persist.deadletter import (
    DeadLetter,
    DeadLetterLog,
    read_dead_letters,
)
from repro.persist.faults import (
    SimulatedCrash,
    fault_scope,
    io_event,
    set_fault_hook,
)
from repro.persist.manager import DurabilityManager, DurabilityStats
from repro.persist.recovery import (
    RecoveryResult,
    recover,
    replay_reference,
)
from repro.persist.tail import WalTailer
from repro.persist.wal import (
    WalRecord,
    WalScan,
    WriteAheadLog,
    read_wal,
    scan_segment,
)

__all__ = [
    "CheckpointMeta",
    "CheckpointState",
    "CheckpointStore",
    "DeadLetter",
    "DeadLetterLog",
    "DurabilityManager",
    "DurabilityStats",
    "RecoveryResult",
    "SimulatedCrash",
    "WalRecord",
    "WalScan",
    "WalTailer",
    "WriteAheadLog",
    "fault_scope",
    "io_event",
    "read_dead_letters",
    "read_wal",
    "recover",
    "replay_reference",
    "scan_segment",
    "set_fault_hook",
]
