"""Mixed read/write driver: N reader threads vs the single writer.

Shared by ``repro serve`` (CLI) and ``benchmarks/bench_serve.py``: start
a :class:`ServeEngine`, hammer the published snapshots with ``sccnt``
queries from ``readers`` threads while the writer drains an update
stream, and report aggregate read throughput over exactly the writer's
drain window — the serving-level number the paper's "real-time" claim
is about.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.counter import ShortestCycleCounter
from repro.errors import ConfigurationError, BackpressureError, EngineReadOnlyError
from repro.graph.digraph import DiGraph
from repro.service.config import ServeConfig
from repro.service.engine import Op, ServeEngine, ServeStats
from repro.service.snapshot import Snapshot

__all__ = [
    "DriveResult",
    "drive_mixed",
    "idle_read_throughput",
    "serial_replay",
]

#: Queries a reader answers per snapshot fetch; amortizes the (cheap but
#: not free) snapshot attribute read and epoch bookkeeping.
_BURST = 64


@dataclass
class DriveResult:
    """Outcome of one mixed serving run."""

    #: update ops submitted to the writer
    ops: int = 0
    #: wall-clock seconds the writer took to drain them
    drain_seconds: float = 0.0
    #: queries answered per reader thread during the drain window
    reader_queries: list[int] = field(default_factory=list)
    #: aggregate reader throughput over the drain window (queries/sec)
    queries_per_second: float = 0.0
    #: distinct epochs readers observed (monotonicity is asserted)
    epochs_seen: int = 0
    #: engine counters at the end of the run
    stats: ServeStats | None = None
    #: the final published snapshot
    final: Snapshot | None = None
    #: exceptions raised inside reader threads (must be empty)
    errors: list[str] = field(default_factory=list)
    #: WAL/checkpoint counters for durable runs (``data_dir`` given)
    durability: object | None = None
    #: ops actually admitted by bounded admission (== ``ops`` without a
    #: ``max_queue_depth``)
    ops_admitted: int = 0
    #: ops dropped under the ``"shed"`` backpressure policy
    ops_shed: int = 0
    #: ops refused with BackpressureError / EngineReadOnlyError
    ops_rejected: int = 0


def idle_read_throughput(
    counter: ShortestCycleCounter,
    vertices: Sequence[int],
    min_seconds: float = 0.3,
) -> float:
    """Single-threaded ``sccnt`` queries/sec over a snapshot with no
    writer running — the baseline the serving ratio is measured against."""
    snap = counter.snapshot()
    count = snap.count
    done = 0
    t0 = time.perf_counter()
    while True:
        for v in vertices:
            count(v)
        done += len(vertices)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return done / elapsed


def serial_replay(
    graph: DiGraph,
    ops: Sequence[Op],
    strategy: str = "redundancy",
) -> ShortestCycleCounter:
    """The serving engine's correctness reference: build a counter over
    ``graph`` and apply ``ops`` strictly serially, one edge at a time.

    Every published epoch must answer bit-identically to the serial
    replay of its op prefix; the CLI's ``--verify``, the serving
    benchmark's correctness gate, and the test suites all compare
    against this."""
    counter = ShortestCycleCounter.build(graph, strategy=strategy)
    for op, tail, head in ops:
        if op == "insert":
            counter.insert_edge(tail, head)
        else:
            counter.delete_edge(tail, head)
    return counter


def drive_mixed(
    source: DiGraph | ShortestCycleCounter | ServeEngine,
    ops: Sequence[Op],
    *,
    readers: int = 2,
    batch_size: int = 16,
    query_vertices: Sequence[int] | None = None,
    strategy: str | None = None,
    bulk_batch: int | None = None,
    config: ServeConfig | None = None,
    query_backend=None,
    **engine_kwargs,
) -> DriveResult:
    """Run ``ops`` through a serving engine while ``readers`` threads
    query published snapshots; returns throughput and consistency data.

    Reader threads pin a snapshot, answer a burst of ``sccnt`` queries
    against it, and re-fetch — observing that epochs never go backwards.
    Only queries answered before the writer finishes draining count
    toward the reported throughput.  With ``bulk_batch`` set, each
    burst is one :meth:`Snapshot.count_many` call over that many
    vertices (the batched read path) instead of ``_BURST`` scalar
    calls.  ``source`` may be a *not-yet-started* :class:`ServeEngine`
    (so callers can open a durable engine first and generate ``ops``
    against its possibly-recovered graph); a full
    :class:`~repro.service.ServeConfig` may be passed as ``config`` (it
    wins over ``strategy``/``batch_size``), or flat engine keywords
    pass through :meth:`ServeConfig.from_kwargs` when the engine is
    built here.

    ``query_backend`` points the reader threads at any other
    :class:`~repro.service.QueryAPI` implementation — e.g. a
    :class:`repro.cluster.ClusterRouter` over replica processes —
    instead of the engine's own published snapshots, so the same driver
    measures local and clustered read paths.
    """
    if bulk_batch is not None and bulk_batch < 1:
        raise ConfigurationError("bulk_batch must be at least 1")
    if readers < 1:
        raise ConfigurationError("readers must be at least 1")
    if isinstance(source, ServeEngine):
        if engine_kwargs or config is not None:
            raise ConfigurationError(
                "engine configuration "
                f"{sorted(engine_kwargs) or '(config=...)'} cannot be "
                "applied to an already-constructed ServeEngine source; "
                "configure the engine directly (strategy/batch_size are "
                "likewise taken from the engine)"
            )
        engine = source
    else:
        if config is None:
            config = ServeConfig.from_kwargs(
                strategy=strategy, batch_size=batch_size, **engine_kwargs
            )
        elif engine_kwargs:
            raise ConfigurationError(
                "pass either config=ServeConfig(...) or flat engine "
                "kwargs, not both: "
                f"{', '.join(sorted(engine_kwargs))}"
            )
        engine = ServeEngine(source, config=config)
    counter = engine.counter
    if query_vertices is None:
        n = counter.graph.n
        query_vertices = range(n)
    vs = list(query_vertices)
    if not vs:
        raise ConfigurationError("no query vertices")

    result = DriveResult(ops=len(ops))
    stop = threading.Event()
    drained = threading.Event()
    counts = [0] * readers
    epochs: set[int] = set()

    def reader(slot: int) -> None:
        k = len(vs)
        j = slot  # de-phase readers so they don't scan in lockstep
        local = 0
        at_drain = 0
        last_epoch = -1
        try:
            while not stop.is_set():
                # Pin one backend state per burst: a published snapshot,
                # or the external QueryAPI backend (whose epoch is read
                # once per burst — e.g. a router's consistency floor).
                backend = (
                    engine.snapshot()
                    if query_backend is None
                    else query_backend
                )
                epoch = backend.epoch
                if epoch < last_epoch:
                    raise AssertionError(
                        f"epoch went backwards: {last_epoch} -> {epoch}"
                    )
                last_epoch = epoch
                epochs.add(epoch)
                if bulk_batch is None:
                    count = backend.sccnt
                    for _ in range(_BURST):
                        count(vs[j % k])
                        j += 1
                    local += _BURST
                else:
                    backend.sccnt_many(
                        [vs[(j + t) % k] for t in range(bulk_batch)]
                    )
                    j += bulk_batch
                    local += bulk_batch
                if not drained.is_set():
                    at_drain = local
        except BaseException as exc:  # noqa: BLE001 - surfaced in result
            result.errors.append(f"reader {slot}: {exc!r}")
        counts[slot] = at_drain

    threads = [
        threading.Thread(target=reader, args=(i,), daemon=True)
        for i in range(readers)
    ]
    if not engine.running:
        # An already-running source (e.g. a cluster primary whose
        # replicas bootstrapped at start) is driven as-is; it is still
        # stopped on the way out like any other.
        engine.start()
    for t in threads:
        t.start()
    try:
        t0 = time.perf_counter()
        # Per-op submission so bounded admission is observable: shed
        # ops return False, rejected ops raise typed errors — both are
        # counted instead of aborting the run (the client owns retry).
        for op, tail, head in ops:
            try:
                if engine.submit(op, tail, head):
                    result.ops_admitted += 1
                else:
                    result.ops_shed += 1
            except (BackpressureError, EngineReadOnlyError):
                result.ops_rejected += 1
        final = engine.flush()
        drain = time.perf_counter() - t0
    finally:
        # A writer failure must not strand the reader threads in their
        # busy loops (nor leave the engine running).
        drained.set()
        stop.set()
        for t in threads:
            t.join()
        engine.stop()

    result.drain_seconds = drain
    result.reader_queries = counts
    result.queries_per_second = sum(counts) / drain if drain else 0.0
    result.epochs_seen = len(epochs)
    result.stats = engine.stats()
    result.final = final
    result.durability = engine.durability_stats()
    return result
