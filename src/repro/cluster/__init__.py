"""Sharded replica serving: replicas scale the apply, reads are mapped.

:mod:`repro.service` serves reads from snapshots inside one process;
this package moves the read-side copies of the index into replica
processes — a primary :class:`~repro.service.ServeEngine` owns the
write path, and N replica processes each maintain their own full copy
of the counter, tailing the primary's write-ahead log as a replication
stream (see :mod:`repro.cluster.cluster` for the topology diagram and
consistency contract).  Each replica publishes every epoch's packed
labels into a memory-mapped image (:mod:`repro.cluster.image`), and
its client answers reads by joining the mapped words in the caller's
process: ~10 µs of the reader's CPU and no round trip, where a pipe RPC
cost ~31 µs of CPU.  A :class:`ClusterRouter` load-balances queries
over the replicas behind the same :class:`repro.service.QueryAPI`
protocol the local backends implement, so ``drive_mixed``, the
monitor, and the benchmarks run unmodified against either tier.

Pieces:

* :class:`Cluster` — the facade: primary + replicas + router,
  ``start``/``stop``, per-epoch digest verification, lag reporting;
* :class:`ClusterRouter` — round-robin QueryAPI with failover and a
  monotone min-epoch consistency floor;
* :class:`ReplicaClient` — QueryAPI over one replica's mapped image,
  plus its control pipe (``status``, ``digests``, ``state_bytes``);
* :func:`replica_main` — the replica process body (checkpoint
  bootstrap via :func:`repro.persist.recover`, then
  :class:`~repro.persist.WalTailer` streaming and image publishing).
"""

from repro.cluster.client import ReplicaClient
from repro.cluster.cluster import Cluster
from repro.cluster.replica import replica_main
from repro.cluster.router import ClusterRouter

__all__ = [
    "Cluster",
    "ClusterRouter",
    "ReplicaClient",
    "replica_main",
]
