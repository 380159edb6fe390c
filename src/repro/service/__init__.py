"""Snapshot-isolated concurrent serving (single writer / many readers).

The paper's motivating deployment is a live transaction stream where
``SCCnt`` queries race edge updates.  The core index is maintained by a
strictly serial algorithm — a long BATCH-DECCNT repair would block every
query — so this package splits the two sides the way dynamic labeling
systems do (stable/versioned labels): **readers never see the index
being repaired, only immutable published snapshots of it**.

Architecture
------------

::

    clients                 ServeEngine                    readers
    -------                 -----------                    -------
    submit(op) ──► update queue ──► writer thread      N threads
                                      │ drain ≤ batch_size ops
                                      │ counter.apply_batch()
                                      │   (BATCH-INCCNT/DECCNT)
                                      ▼
                              Snapshot.capture()  ── epoch k+1
                                      │ (CycleMonitor / on_publish
                                      │  observe the epoch first)
                                      ▼
                         published ◄──┘        snapshot() ──► sccnt
                         (atomic swap)                        spcnt
                                                              top_suspicious

Snapshot lifecycle
------------------

* ``Snapshot.capture`` goes through :meth:`CSCIndex.snapshot` →
  :meth:`LabelStore.snapshot`: O(n) pointer copies; all label data —
  packed ``array('Q')`` payloads, overflow tables, resident query
  accelerators — is *shared* with the live store.
* The live store then copy-on-writes at per-vertex granularity: the
  writer's first mutation of a vertex since the snapshot clones just
  that vertex's structures, so a snapshot costs O(dirty vertices) over
  its lifetime, never a full copy.
* The snapshot itself is frozen (mutations raise
  :class:`~repro.errors.FrozenSnapshotError`) and self-contained for
  queries — it never reads the live graph — which is what makes it safe
  to read from any number of threads while the writer repairs.
* Publication is a single attribute swap; readers pin whatever epoch
  they grabbed and upgrade on their next ``snapshot()`` call.  Old
  epochs are garbage-collected once no reader holds them.

Thread contract: exactly one thread (the engine's writer) mutates the
counter and takes snapshots; any number of threads read published
snapshots.  :meth:`CycleMonitor.observe_snapshot` evaluates alert
crossings once per published epoch, on the writer thread, before the
epoch becomes visible.
"""

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.types import CycleCount, PathCount

from repro.service.config import (
    AdmissionConfig,
    DurabilityConfig,
    RetryConfig,
    ServeConfig,
    add_config_arguments,
    config_from_args,
    load_config_file,
)
from repro.service.driver import (
    DriveResult,
    drive_mixed,
    idle_read_throughput,
    serial_replay,
)
from repro.service.engine import ServeEngine, ServeStats
from repro.service.snapshot import Snapshot

__all__ = [
    "AdmissionConfig",
    "DriveResult",
    "DurabilityConfig",
    "QueryAPI",
    "RetryConfig",
    "ServeConfig",
    "ServeEngine",
    "ServeStats",
    "Snapshot",
    "add_config_arguments",
    "config_from_args",
    "drive_mixed",
    "idle_read_throughput",
    "load_config_file",
    "serial_replay",
]


@runtime_checkable
class QueryAPI(Protocol):
    """The uniform read surface every query backend implements.

    One protocol, three implementations with very different machinery
    behind the same answers:

    * :class:`Snapshot` — an immutable published epoch (the serving
      engine's read primitive);
    * :class:`~repro.core.counter.ShortestCycleCounter` — the live
      single-threaded counter (``epoch`` counts applied updates);
    * :class:`repro.cluster.ReplicaClient` — a replica process answering
      over a pipe from its own tailed copy of the primary's WAL.

    Clients written against this protocol (``drive_mixed`` readers, the
    monitor, the benchmarks) run unmodified against local or clustered
    backends.  ``epoch`` is the backend's state version: monotone per
    backend, and two backends at the same epoch answer bit-identically.
    """

    @property
    def epoch(self) -> int: ...

    def sccnt(self, v: int) -> CycleCount: ...

    def sccnt_many(self, vertices: Sequence[int]) -> list[CycleCount]: ...

    def spcnt(self, x: int, y: int) -> PathCount: ...

    def spcnt_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[PathCount]: ...

    def top_suspicious(self, k: int = 10) -> list[tuple[int, CycleCount]]: ...
