"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause while still being
able to distinguish graph-shape problems from index problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError, ValueError):
    """An argument or configuration value is invalid.

    Doubly inherits :class:`ValueError` so call sites that predate the
    typed taxonomy (``except ValueError`` guards, tests asserting
    ``pytest.raises(ValueError)``) keep working, while new code can
    catch the whole library family through :class:`ReproError`.
    """


class LockOrderError(ReproError):
    """The runtime lock-order detector observed an acquisition that
    inverts the canonical lock order (or would close a cycle in the
    global acquisition graph) — i.e. a potential deadlock.

    Raised by :mod:`repro.analysis.lockdep` when instrumentation is
    enabled (``REPRO_LOCKDEP=1``); never raised in production builds.
    """


class GraphError(ReproError):
    """Base class for errors about the structure of a graph."""


class VertexError(GraphError):
    """A vertex id is outside the graph's vertex range."""

    def __init__(self, vertex: int, n: int) -> None:
        super().__init__(f"vertex {vertex} not in graph with {n} vertices")
        self.vertex = vertex
        self.n = n


class BatchVertexError(VertexError):
    """One or more vertex ids in a bulk query batch are out of range.

    Raised by ``sccnt_many`` / ``spcnt_many`` *before any query is
    evaluated* — a bulk call never produces partial results and never
    surfaces a mid-batch ``IndexError``.
    ``bad`` names every offending ``(batch_index, vertex)`` pair.
    Subclasses :class:`VertexError` (with ``vertex`` set to the first
    offender) so existing single-query handlers keep working.
    """

    def __init__(self, bad: list[tuple[int, int]], n: int) -> None:
        bad = list(bad)
        detail = ", ".join(f"[{i}]={v}" for i, v in bad)
        GraphError.__init__(
            self,
            f"{len(bad)} invalid vertex id(s) in bulk query batch "
            f"(n={n}): {detail}",
        )
        self.bad = bad
        self.vertex = bad[0][1] if bad else -1
        self.n = n


class EdgeExistsError(GraphError):
    """Attempted to insert an edge that is already present."""

    def __init__(self, tail: int, head: int) -> None:
        super().__init__(f"edge ({tail}, {head}) already exists")
        self.tail = tail
        self.head = head


class EdgeNotFoundError(GraphError):
    """Attempted to remove or reference an edge that is not present."""

    def __init__(self, tail: int, head: int) -> None:
        super().__init__(f"edge ({tail}, {head}) does not exist")
        self.tail = tail
        self.head = head


class SelfLoopError(GraphError):
    """Self loops are not allowed (the paper's graphs have none)."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"self loop ({vertex}, {vertex}) is not allowed")
        self.vertex = vertex


class IndexingError(ReproError):
    """Base class for errors raised while building or using a label index."""


class OrderingError(IndexingError):
    """A vertex ordering is malformed (wrong length, duplicates, ...)."""


class PackingOverflowError(IndexingError):
    """A label entry does not fit the 64-bit packed encoding of the paper."""

    def __init__(self, field: str, value: int, bits: int) -> None:
        super().__init__(
            f"label field {field!r} value {value} does not fit in {bits} bits"
        )
        self.field = field
        self.value = value
        self.bits = bits


class SerializationError(ReproError):
    """An index or graph byte stream is malformed or has a bad version."""


class FrozenSnapshotError(IndexingError):
    """Attempted to mutate a frozen label-store snapshot.

    Snapshots are the immutable read side of the single-writer /
    multi-reader serving engine (:mod:`repro.service`); all updates must
    go through the live store they were taken from.
    """


class StaleLabelError(IndexingError):
    """A query hit a label store with deferred-repair tombstones.

    Between a deferred edge deletion and the completion of its
    background DECCNT repair the live fingerprints of the tombstoned
    hubs are wrong, so direct queries are refused.  The serving engine
    never surfaces this: its readers answer from the last clean
    published snapshot until the repaired epoch is published.
    """


class ServiceStoppedError(ReproError):
    """An operation was submitted to a serving engine that is not running."""


class BackpressureError(ReproError):
    """Bounded admission refused an op: the update queue is full.

    Raised by :meth:`repro.service.ServeEngine.submit` under the
    ``"reject"`` backpressure policy (immediately) or the ``"block"``
    policy (after the admission timeout expired without the queue
    draining below ``max_queue_depth``).  The op was *not* enqueued;
    the client owns the retry decision.
    """

    def __init__(self, depth: int, max_depth: int,
                 timed_out: bool = False) -> None:
        how = (
            f"queue stayed full (depth {depth}/{max_depth}) past the "
            "admission timeout"
            if timed_out
            else f"queue is full (depth {depth}/{max_depth})"
        )
        super().__init__(f"backpressure: {how}")
        self.depth = depth
        self.max_depth = max_depth
        self.timed_out = timed_out


class EngineReadOnlyError(ServiceStoppedError):
    """The serving engine is in the ``read_only`` health state: durable
    acknowledgement is unavailable (WAL appends keep failing with
    ``ENOSPC``/``EIO``), so writes are rejected while reads keep
    answering from the last published epoch.  A background probe
    retries the disk; once an append succeeds the engine returns to
    ``healthy`` and accepts writes again.
    """


class ServiceFailedError(ServiceStoppedError):
    """The serving engine's writer thread failed or died.

    Raised by :meth:`repro.service.ServeEngine.flush` /
    :meth:`~repro.service.ServeEngine.stop` when the writer is dead with
    submitted ops unconsumed, or when a failure that was already
    reported once is observed again (the sticky record).  The first
    recorded failure, if any, is chained as ``__cause__``.
    """


class PersistenceError(ReproError):
    """A durability file (WAL segment, checkpoint) is structurally
    invalid — bad magic/version, impossible framing, CRC mismatch.

    Torn tails are *not* errors: the WAL scanner and checkpoint chain
    resolver degrade to the last valid record/chain silently.  This is
    raised only where degradation is impossible, e.g. a segment whose
    header itself is unreadable.
    """


class RecoveryError(PersistenceError):
    """A durability directory holds no recoverable state (no valid
    checkpoint chain, or WAL segments with no checkpoint under them)."""


class DurabilityUnavailableError(PersistenceError):
    """Durable acknowledgement is (persistently) failing.

    Recorded by the serving engine when a WAL append keeps raising a
    disk-exhaustion/IO errno after its bounded retries — the moment the
    engine transitions to the ``read_only`` health state.  The original
    ``OSError`` is chained as ``__cause__``.
    """


class WalTailGapError(PersistenceError):
    """A WAL tailer's cursor points past the start of the surviving log.

    The segments holding the next record the tailer needs were pruned
    (folded into a checkpoint and deleted) before the tailer reached
    them.  The stream cannot be resumed incrementally; the consumer must
    re-bootstrap from the newest checkpoint via
    :func:`repro.persist.recover` and tail again from there.
    """


class WalRolledBackError(PersistenceError):
    """Frames a WAL tailer already delivered were rolled back.

    The single writer truncates its segment back to the last valid
    record boundary when an append fails mid-frame (or lands but cannot
    be fsynced).  A tailer that read such a frame before the rollback
    may have applied a batch the primary never acknowledged — its
    derived state is suspect, so it must discard it and re-bootstrap
    from the newest checkpoint.
    """


class ClusterError(ReproError):
    """Base class for replica/cluster serving errors."""


class ReplicaUnavailableError(ClusterError):
    """A replica process died or stopped answering within its timeout."""


class NoReplicaAvailableError(ClusterError):
    """Every replica behind a router is failed or excluded; a query
    cannot be routed anywhere."""
