"""Single-writer / multi-reader serving engine with epoch publication.

One writer thread owns the :class:`ShortestCycleCounter`: it drains the
update queue in batches through the batched maintenance engine
(BATCH-INCCNT/DECCNT), then publishes an immutable :class:`Snapshot` of
the repaired labels.  Reader threads never touch the live index — they
grab the latest published snapshot (one atomic attribute read) and
answer ``sccnt`` / ``spcnt`` / ``top_suspicious`` against it, so a long
deletion repair pass no longer blocks queries; readers just keep serving
the previous epoch until the next one lands.  The writer applies every
batch inline, in submission order: DECCNT's repair pass (or the rebuild
fallback) is one serial pass, as in the paper.

Self-healing (fault taxonomy)
-----------------------------

The writer classifies every batch failure instead of treating them all
as fatal:

* **poison** — a deterministic :class:`~repro.errors.ReproError` from
  ``apply_batch`` (an infeasible op under ``on_invalid="raise"``, a
  packing overflow, ...) would raise again on every retry and on
  recovery replay.  Under the default ``on_poison="quarantine"`` the
  batch is WAL-marked aborted, appended to a CRC-framed dead-letter log
  (:mod:`repro.persist.deadletter`), counted in
  :attr:`ServeStats.quarantined`, and the writer *resumes the stream*;
  ``on_poison="fail"`` keeps the pre-taxonomy behavior (sticky failure
  surfaced by :meth:`flush`).
* **transient** — a WAL append failing with a disk-pressure errno
  (``ENOSPC``/``EIO``) is retried with bounded exponential backoff
  (``io_retries`` attempts).  ``apply_batch`` itself is never
  retried: it may fail after mutating the graph, and a retry would run
  the batch against a state it was not planned on.
* **durability outage** — a WAL append still failing after its retries
  drives the health machine to ``read_only``: the batch is *parked*
  (not lost, not acked), new writes are rejected with
  :class:`~repro.errors.EngineReadOnlyError`, readers keep answering
  from the last published epoch, and a background probe with
  exponential backoff retries the append — success re-admits writes.
  A failing *checkpoint* is softer: ``degraded_durability`` (writes
  still durably logged and acked; the WAL just grows) with an idle-time
  probe that retries the checkpoint.
* **unclassifiable** — anything else stays a sticky failure, exactly as
  before; the writer thread *dying* moves the engine to ``failed``,
  where reads raise too.

See :mod:`repro.service.health` for the state machine and
:class:`ServeStats` / :meth:`ServeEngine.durability_stats` for how the
states and counters are exposed.
"""

from __future__ import annotations

import errno
import queue
import threading
import time
import warnings
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from collections.abc import Callable, Iterable, Sequence

from repro.analysis import lockdep
from repro.core.counter import ShortestCycleCounter
from repro.errors import (
    ConfigurationError,
    BackpressureError,
    DurabilityUnavailableError,
    EngineReadOnlyError,
    ReproError,
    SelfLoopError,
    ServiceFailedError,
    ServiceStoppedError,
    VertexError,
)
from repro.graph.digraph import DiGraph
from repro.persist.deadletter import (
    DEADLETTER_FILE,
    DeadLetter,
    DeadLetterLog,
)
from repro.persist.manager import DurabilityManager
from repro.service.config import ServeConfig
from repro.service.health import (
    DEGRADED_DURABILITY,
    FAILED,
    HEALTHY,
    READ_ONLY,
)
from repro.service.snapshot import Snapshot

__all__ = ["ServeEngine", "ServeStats"]

Op = tuple[str, int, int]

#: Queue sentinel that tells the writer to exit after the ops before it.
_STOP = object()

#: Disk-pressure errnos treated as transient (retry, then degrade)
#: rather than unclassifiable (sticky failure).
_TRANSIENT_ERRNOS = frozenset({errno.ENOSPC, errno.EIO})


@dataclass(frozen=True)
class ServeStats:
    """A point-in-time view of the engine's counters."""

    #: ops accepted by :meth:`ServeEngine.submit` so far
    ops_submitted: int = 0
    #: ops consumed from the queue (applied, skipped, or quarantined)
    ops_consumed: int = 0
    #: net edge mutations the batches applied to the graph
    edges_applied: int = 0
    #: infeasible ops dropped by ``on_invalid="skip"``
    ops_skipped: int = 0
    #: update batches processed (== epochs published after start)
    batches: int = 0
    #: batches that took the full-rebuild fallback
    rebuilds: int = 0
    #: latest published epoch (0 = the initial snapshot)
    epoch: int = 0
    #: ops submitted but not yet consumed
    queue_depth: int = 0
    #: whether the writer thread is alive
    running: bool = False
    #: poison batches quarantined to the dead-letter log
    quarantined: int = 0
    #: ops dropped at admission under the ``"shed"`` policy
    ops_shed: int = 0
    #: ops refused at admission (``"reject"`` or ``"block"`` timeout)
    ops_rejected: int = 0
    #: health state (see :mod:`repro.service.health`)
    health: str = HEALTHY
    #: transient-fault retries performed (WAL appends)
    io_retries: int = 0
    #: WAL append attempts that raised a transient errno
    wal_append_failures: int = 0
    #: checkpoint attempts that raised a transient errno
    checkpoint_failures: int = 0


class ServeEngine:
    """Snapshot-isolated concurrent serving of a dynamic cycle counter.

    Parameters
    ----------
    source:
        A :class:`DiGraph` (an index is built over a copy) or an already
        built :class:`ShortestCycleCounter` (adopted — after
        :meth:`start`, mutate it only through this engine).
    config:
        A frozen :class:`~repro.service.config.ServeConfig` — the whole
        option surface as one validated, JSON-serializable value object
        (see :mod:`repro.service.config` for every field).  Defaults
        apply when omitted.  The pre-redesign flat keyword surface
        (``batch_size=..., data_dir=..., ...``) still works through a
        shim that emits a :class:`DeprecationWarning` and builds the
        equivalent config via :meth:`ServeConfig.from_kwargs`; mixing
        both in one call is a :class:`ConfigurationError`.
    monitor:
        Optional :class:`repro.monitor.CycleMonitor` evaluated on every
        published epoch (writer thread; see
        :meth:`CycleMonitor.observe_snapshot`).  A runtime collaborator,
        not configuration — hence not a :class:`ServeConfig` field.
    on_publish:
        Optional callback invoked with each new :class:`Snapshot`
        *before* it becomes visible to :meth:`snapshot` (writer thread).

    With ``config.durability.data_dir`` set, a directory holding
    recoverable state wins over ``source``: the engine resumes at the
    recovered epoch (see :attr:`recovery`) under the strategy the data
    was written with; a fresh directory is bootstrapped with an initial
    full checkpoint of ``source``.  From then on every batch is durably
    logged before its epoch is published (log-before-publish).

    A callback or batch failure is recorded (see :attr:`failure`) and
    re-raised by :meth:`flush` / :meth:`stop`; the engine keeps serving
    the last good epoch meanwhile.  ``apply_batch`` raises an invalid
    batch before any mutation (its plan step), but a failure after that
    may leave the graph changed while repair or rebuild never ran, so a
    failed batch is never retried.  The record is sticky: after the
    first raise it is kept (not cleared), and any later observation of
    an unhealthy engine — a dead writer, an undrained queue — raises a
    :class:`~repro.errors.ServiceFailedError` chaining it instead of
    waiting forever.
    """

    def __init__(
        self,
        source: DiGraph | ShortestCycleCounter | None = None,
        config: ServeConfig | None = None,
        *,
        monitor=None,
        on_publish: Callable[[Snapshot], None] | None = None,
        **options,
    ) -> None:
        if options:
            # Deprecation shim: the pre-redesign flat keyword surface.
            # from_kwargs rejects unknown names and runs the same field
            # validation the typed path gets, so behavior is pinned
            # equivalent (tests/service/test_config.py).
            if config is not None:
                raise ConfigurationError(
                    "pass either config=ServeConfig(...) or the legacy "
                    "flat keyword options, not both; offending "
                    f"option(s): {', '.join(sorted(options))}"
                )
            warnings.warn(
                "passing ServeEngine options as flat keyword arguments "
                "is deprecated; build a repro.service.ServeConfig and "
                "pass it as config=...",
                DeprecationWarning,
                stacklevel=2,
            )
            config = ServeConfig.from_kwargs(**options)
        elif config is None:
            config = ServeConfig()
        elif not isinstance(config, ServeConfig):
            raise ConfigurationError(
                "config must be a repro.service.ServeConfig, got "
                f"{type(config).__name__}"
            )
        self._config = config
        dur_cfg = config.durability
        strategy = config.strategy
        self._durability: DurabilityManager | None = None
        self._recovery = None
        self._base_epoch = 0
        self._base_ops = 0
        self._checkpoint_on_stop = dur_cfg.checkpoint_on_stop
        self._final_durability_stats = None
        if dur_cfg.data_dir is not None:
            manager, recovered = DurabilityManager.open(
                dur_cfg.data_dir,
                fsync=dur_cfg.wal_fsync,
                checkpoint_wal_bytes=dur_cfg.checkpoint_wal_bytes,
                full_checkpoint_every=dur_cfg.full_checkpoint_every,
            )
            self._durability = manager
            self._recovery = recovered
            if recovered is not None:
                # The directory's state wins over `source`: the engine
                # resumes exactly where the last process stopped —
                # including the maintenance strategy the data was
                # written under (an explicit conflicting request is an
                # error, never silently dropped: replay fidelity pins
                # the strategy to the recorded one).
                if (
                    strategy is not None
                    and strategy != recovered.counter.strategy
                ):
                    raise ConfigurationError(
                        f"data_dir {dur_cfg.data_dir!r} was written with "
                        f"strategy {recovered.counter.strategy!r}; "
                        f"cannot resume it as {strategy!r}"
                    )
                self._counter = recovered.counter
                self._base_epoch = recovered.epoch
                self._base_ops = recovered.ops_applied
            elif source is None:
                raise ConfigurationError(
                    f"data_dir {dur_cfg.data_dir!r} holds no recoverable "
                    "state and no source graph/counter was given"
                )
        if self._recovery is None:
            if isinstance(source, ShortestCycleCounter):
                self._counter = source
            elif isinstance(source, DiGraph):
                self._counter = ShortestCycleCounter.build(
                    source, strategy=strategy or "redundancy"
                )
            else:
                raise ConfigurationError(
                    "source must be a DiGraph or ShortestCycleCounter "
                    "(or data_dir must hold recoverable state)"
                )
            if self._durability is not None:
                self._durability.bootstrap(self._counter)
        self._dead_letter: DeadLetterLog | None = None
        if self._durability is not None:
            self._dead_letter = DeadLetterLog(
                self._durability.data_dir / DEADLETTER_FILE,
                fsync=dur_cfg.wal_fsync,
            )
        self._batch_size = config.batch_size
        self._rebuild_threshold = config.rebuild_threshold
        self._on_invalid = config.on_invalid
        self._monitor = monitor
        self._on_publish = on_publish
        self._max_queue_depth = config.admission.max_queue_depth
        self._backpressure = config.admission.backpressure
        self._submit_timeout = config.admission.submit_timeout
        self._on_poison = config.on_poison
        self._io_retries = config.retry.io_retries
        self._io_backoff_s = config.retry.io_backoff_s
        self._probe_backoff_s = config.retry.probe_backoff_s
        self._probe_max_backoff_s = config.retry.probe_max_backoff_s
        # Every durability-manager call holds _dur_lock.  Canonical
        # acquisition order (REP001, enforced statically by
        # `repro analyze` and at runtime under REPRO_LOCKDEP=1):
        # _dur_lock -> _lock/_progress, ascending rank.
        self._dur_lock = lockdep.make_lock(
            "ServeEngine._dur_lock", rank=20)

        self._queue: queue.SimpleQueue[object] = queue.SimpleQueue()
        self._lock = lockdep.make_lock("ServeEngine._lock", rank=30)
        self._progress = threading.Condition(self._lock)
        self._submitted = 0
        self._consumed = 0
        self._edges_applied = 0
        self._skipped = 0
        self._batches = 0
        self._rebuilds = 0
        self._shed = 0
        self._rejected = 0
        self._io_retry_count = 0
        self._wal_failures = 0
        self._ckpt_failures = 0
        self._quarantined: list[DeadLetter] = []
        self._health = HEALTHY
        #: probe interval while DEGRADED (writer thread only)
        self._probe_wait = self._probe_backoff_s
        # The failure record is *sticky*: it is never cleared, only
        # marked reported, so a caller arriving after the first raise
        # still sees what went wrong instead of waiting on a queue that
        # nothing will ever drain.
        self._failure: BaseException | None = None
        self._failure_reported = False
        #: the read-only transition's failure record, kept separately so
        #: a successful heal can retire it without erasing real news
        self._ro_failure: BaseException | None = None
        #: the exception that killed the writer thread (FAILED state)
        self._writer_fatal: BaseException | None = None
        self._writer_exited = False
        self._writer: threading.Thread | None = None
        self._stopping = False
        self._published: Snapshot | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> ServeEngine:
        """Publish the base epoch (0, or the recovered epoch when the
        engine was opened on an existing data dir) and launch the
        writer thread."""
        if self._writer is not None:
            raise ServiceStoppedError("engine already started")
        snap = Snapshot.capture(
            self._counter,
            epoch=self._base_epoch,
            ops_applied=self._base_ops,
        )
        if self._on_publish is not None:
            self._on_publish(snap)
        if self._monitor is not None:
            self._monitor.observe_snapshot(snap)
        self._published = snap
        self._writer = threading.Thread(
            target=self._run, name="repro-serve-writer", daemon=True
        )
        self._writer.start()
        return self

    def stop(self, timeout: float | None = None) -> None:
        """Drain everything already submitted, stop the writer, and
        re-raise any unreported failure.  Idempotent.

        Raises :class:`TimeoutError` when the writer does not finish
        draining within ``timeout`` seconds; the engine stays stoppable
        — the stop request remains queued and a later ``stop()`` joins
        the writer again.
        """
        with self._progress:
            if self._stopping:
                writer = self._writer
            else:
                self._stopping = True
                writer = self._writer
                if writer is not None:
                    self._queue.put(_STOP)
            # Wake blocked submitters and any writer parked on the
            # stopping check so shutdown is prompt.
            self._progress.notify_all()
        if writer is not None:
            writer.join(timeout)
            if writer.is_alive():
                raise TimeoutError(
                    f"serve writer did not stop within {timeout}s "
                    f"({self._submitted - self._consumed} ops still "
                    "queued); the engine remains stoppable — call "
                    "stop() again"
                )
        self._shutdown_durability()
        with self._progress:
            # A clean stop consumes everything accepted before the stop
            # request; a shortfall here means ops were lost — a dead
            # writer, or a batch abandoned while parked in read_only —
            # and must never be reported as a clean shutdown, even once
            # the underlying failure was reported.
            undrained = self._consumed < self._submitted
            self._raise_failure_locked(wrap_reported=undrained)
            if undrained:
                raise ServiceFailedError(
                    "serve writer exited with "
                    f"{self._submitted - self._consumed} submitted ops "
                    "unconsumed"
                ) from (self._failure or self._writer_fatal)

    def _shutdown_durability(self) -> None:
        """Flush the WAL and (optionally) write a final checkpoint so a
        restart skips replay; idempotent, writer already joined."""
        dur = self._durability
        if dur is None:
            return
        try:
            if (
                self._checkpoint_on_stop
                and self._failure is None
                and self._writer_fatal is None
                and self._health in (HEALTHY, DEGRADED_DURABILITY)
                and self._published is not None
            ):
                dur.maybe_final_checkpoint(self._published)
            dur.sync()
        except BaseException as exc:  # noqa: BLE001 - surfaced via stop()
            self._record_failure(exc)
        finally:
            try:
                self._final_durability_stats = dur.stats()
            except OSError:  # pragma: no cover - vanished data dir
                pass
            if self._dead_letter is not None:
                self._dead_letter.close()
            dur.close()
            self._durability = None

    def _raise_failure_locked(self, wrap_reported: bool = False) -> None:
        """Raise the recorded failure (``_progress`` held).

        The record is sticky — never cleared.  An unreported failure is
        raised as the original exception and marked reported; an
        already-reported one is re-raised only when ``wrap_reported`` is
        set (the unhealthy paths: a dead writer, an undrained queue), as
        a :class:`ServiceFailedError` chaining the original, so healthy
        later flushes/stops are not poisoned by old news.
        """
        failure = self._failure
        if failure is None:
            return
        if not self._failure_reported:
            self._failure_reported = True
            raise failure
        if wrap_reported:
            raise ServiceFailedError(
                f"serve writer failed earlier: {failure!r}"
            ) from failure

    def __enter__(self) -> ServeEngine:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def _check_admission_locked(self) -> None:
        """Typed rejection for a closed/unhealthy engine (lock held)."""
        if self._stopping or self._writer is None:
            raise ServiceStoppedError(
                "serving engine is not accepting updates"
            )
        if self._health == FAILED:
            raise ServiceFailedError(
                "serving engine has failed; writes rejected"
            ) from (self._failure or self._writer_fatal)
        if self._health == READ_ONLY:
            raise EngineReadOnlyError(
                "serving engine is read-only: durable acknowledgement "
                "is unavailable (a disk probe is retrying in the "
                "background)"
            ) from self._failure

    def submit(self, op: str, tail: int, head: int) -> bool:
        """Queue one ``insert``/``delete`` op for the writer; returns
        whether the op was admitted (``False`` only under the
        ``"shed"`` backpressure policy).

        Malformed ops (unknown name, out-of-range vertex, self loop) are
        rejected here, synchronously; *presence* conflicts are resolved
        by the writer under the engine's ``on_invalid`` policy, because
        only the application order decides them.  With a
        ``max_queue_depth``, a full queue is handled per the
        ``backpressure`` policy (see the constructor).
        """
        if op not in ("insert", "delete"):
            raise ConfigurationError(f"unknown serve op {op!r}")
        n = self._counter.graph.n
        if not 0 <= tail < n:
            raise VertexError(tail, n)
        if not 0 <= head < n:
            raise VertexError(head, n)
        if tail == head:
            raise SelfLoopError(tail)
        with self._progress:
            self._check_admission_locked()
            maxd = self._max_queue_depth
            if maxd is not None:
                depth = self._submitted - self._consumed
                if depth >= maxd:
                    if self._backpressure == "reject":
                        self._rejected += 1
                        raise BackpressureError(depth, maxd)
                    if self._backpressure == "shed":
                        self._shed += 1
                        return False
                    # "block": wait for drain — or for a state in which
                    # waiting is pointless (stop, read_only, failed).
                    self._progress.wait_for(
                        lambda: (
                            self._stopping
                            or self._health in (READ_ONLY, FAILED)
                            or self._submitted - self._consumed < maxd
                        ),
                        self._submit_timeout,
                    )
                    self._check_admission_locked()
                    depth = self._submitted - self._consumed
                    if depth >= maxd:
                        self._rejected += 1
                        raise BackpressureError(
                            depth, maxd, timed_out=True
                        )
            self._submitted += 1
            # Enqueue under the same lock as the _stopping check (put
            # never blocks on a SimpleQueue): otherwise an accepted op
            # could land *behind* stop()'s _STOP sentinel and be
            # silently dropped, wedging flush() forever.
            self._queue.put((op, tail, head))
        return True

    def submit_many(self, ops: Iterable[Op]) -> int:
        """Queue a sequence of ops; returns how many were admitted
        (shed ops are skipped; admission errors propagate)."""
        count = 0
        for op, tail, head in ops:
            if self.submit(op, tail, head):
                count += 1
        return count

    def snapshot(self) -> Snapshot:
        """The latest published snapshot (an atomic attribute read —
        safe from any thread, never blocks on the writer).

        Reads stay available in every health state except ``failed``,
        where the engine's writer died and the sticky failure is
        raised instead.
        """
        if self._health == FAILED:
            with self._progress:
                cause = self._failure or self._writer_fatal
            raise ServiceFailedError(
                "serving engine has failed; reads unavailable"
            ) from cause
        snap = self._published
        if snap is None:
            raise ServiceStoppedError("engine not started")
        return snap

    def count_many(self, vertices: Sequence[int]):
        """Batched ``SCCnt`` against the latest published snapshot —
        one atomic snapshot fetch, then the deduplicated batch query
        (:meth:`Snapshot.count_many`).  Safe from any thread."""
        return self.snapshot().count_many(vertices)

    def spcnt_many(self, pairs: Sequence[tuple[int, int]]):
        """Batched ``SPCnt`` against the latest published snapshot
        (:meth:`Snapshot.spcnt_many`).  Safe from any thread."""
        return self.snapshot().spcnt_many(pairs)

    def flush(self, timeout: float | None = None) -> Snapshot:
        """Block until every op submitted so far has been consumed and
        its epoch published; returns the then-current snapshot.

        Raises the writer's recorded failure, if any; a
        :class:`ServiceFailedError` when the engine's writer thread is
        dead with submitted ops unconsumed (fail fast — nothing will
        ever drain them); an
        :class:`~repro.errors.EngineReadOnlyError` when the engine is
        parked in ``read_only`` with ops awaiting durable
        acknowledgement; and ``TimeoutError`` if a live writer does not
        drain the queue in ``timeout`` seconds.
        """
        with self._progress:
            target = self._submitted
            writer = self._writer
            self._progress.wait_for(
                lambda: (
                    self._consumed >= target
                    or (self._failure is not None
                        and not self._failure_reported)
                    or writer is None
                    or self._writer_exited
                    or self._health in (READ_ONLY, FAILED)
                ),
                timeout,
            )
            if self._consumed < target and self._health == READ_ONLY:
                # The typed rejection subsumes the sticky read-only
                # record: mark it reported so the caller sees ONE
                # consistent error here (and a later healthy flush is
                # not poisoned by the healed outage).
                if self._failure is self._ro_failure:
                    self._failure_reported = True
                raise EngineReadOnlyError(
                    "serving engine is read-only with "
                    f"{target - self._consumed} ops awaiting "
                    "durable acknowledgement"
                ) from self._ro_failure
            self._raise_failure_locked()
            if self._consumed < target:
                if (
                    writer is None
                    or self._writer_exited
                    or self._health == FAILED
                ):
                    raise ServiceFailedError(
                        "serve writer thread is dead with "
                        f"{target - self._consumed} submitted ops "
                        "unconsumed"
                    ) from (self._failure or self._writer_fatal)
                raise TimeoutError(
                    f"serve queue did not drain within {timeout}s"
                )
        return self.snapshot()

    @property
    def counter(self) -> ShortestCycleCounter:
        """The live counter (writer-owned once the engine is running —
        do not mutate it from other threads)."""
        return self._counter

    @property
    def config(self) -> ServeConfig:
        """The immutable :class:`ServeConfig` this engine was built
        from (legacy keyword calls see the equivalent typed config)."""
        return self._config

    @property
    def running(self) -> bool:
        """Whether :meth:`start` has been called (the writer thread was
        launched; stays ``True`` after :meth:`stop`)."""
        return self._writer is not None

    @property
    def failure(self) -> BaseException | None:
        """The recorded batch/callback failure, if any (sticky — stays
        set after being raised by :meth:`flush` / :meth:`stop`)."""
        return self._failure

    @property
    def health(self) -> str:
        """Current health state (see :mod:`repro.service.health`)."""
        return self._health

    @property
    def recovery(self):
        """The :class:`~repro.persist.RecoveryResult` this engine was
        opened from, or ``None`` (fresh directory / no ``data_dir``)."""
        return self._recovery

    @property
    def dead_letter_path(self):
        """Path of the dead-letter log for durable engines, else
        ``None`` (the file itself exists only once a batch was
        quarantined)."""
        if self._dead_letter is not None:
            return self._dead_letter.path
        return None

    def quarantined(self) -> tuple[DeadLetter, ...]:
        """The batches quarantined so far (in-memory view; durable
        engines also persist each to the dead-letter log)."""
        with self._lock:
            return tuple(self._quarantined)

    def durability_stats(self):
        """WAL/checkpoint counters annotated with the engine's health
        state, or ``None`` without a ``data_dir`` (after :meth:`stop`,
        the final pre-close stats)."""
        if self._durability is not None:
            stats = self._durability.stats()
        else:
            stats = self._final_durability_stats
        if stats is None:
            return None
        return _dc_replace(stats, health=self._health)

    def stats(self) -> ServeStats:
        """Current counters (consistent under the engine lock)."""
        with self._lock:
            snap = self._published
            return ServeStats(
                ops_submitted=self._submitted,
                ops_consumed=self._consumed,
                edges_applied=self._edges_applied,
                ops_skipped=self._skipped,
                batches=self._batches,
                rebuilds=self._rebuilds,
                epoch=snap.epoch if snap is not None else 0,
                queue_depth=self._submitted - self._consumed,
                running=(
                    self._writer is not None and self._writer.is_alive()
                ),
                quarantined=len(self._quarantined),
                ops_shed=self._shed,
                ops_rejected=self._rejected,
                health=self._health,
                io_retries=self._io_retry_count,
                wal_append_failures=self._wal_failures,
                checkpoint_failures=self._ckpt_failures,
            )

    # ------------------------------------------------------------------
    # Health transitions
    # ------------------------------------------------------------------
    def _set_health(self, state: str) -> None:
        with self._progress:
            self._health = state
            self._progress.notify_all()

    def _enter_read_only(self, cause: BaseException) -> None:
        """WAL appends exhausted their retries: reject writes, keep
        reads, and leave a typed record for flush()/stop()."""
        err = DurabilityUnavailableError(
            f"WAL append kept failing ({cause}); engine is read-only "
            "until a background probe reaches the disk again"
        )
        err.__cause__ = cause
        with self._progress:
            self._health = READ_ONLY
            self._ro_failure = err
            if self._failure is None or self._failure_reported:
                self._failure = err
                self._failure_reported = False
            self._progress.notify_all()

    def _exit_read_only(self) -> None:
        """A parked append finally succeeded: re-admit writes.  The
        read-only record is retired (marked reported) if still fresh —
        nothing was lost, so it must not poison a later healthy flush."""
        with self._progress:
            self._health = HEALTHY
            if self._failure is self._ro_failure:
                self._failure_reported = True
            self._ro_failure = None
            self._progress.notify_all()

    # ------------------------------------------------------------------
    # Writer thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            self._writer_loop()
        except BaseException as exc:  # noqa: BLE001 - thread supervisor
            # The writer died with an unclassifiable error: terminal.
            # Deliberately NOT recorded into the sticky failure slot —
            # flush()/stop() report the stranded queue as a
            # ServiceFailedError chaining whatever was recorded before
            # (or this fatal, via _writer_fatal).
            with self._progress:
                self._health = FAILED
                self._writer_fatal = exc
                self._progress.notify_all()
            raise
        finally:
            # Wake any flush() waiting on consumption: once this thread
            # exits (cleanly or not), nothing else will ever notify, and
            # flush must get the chance to fail fast instead of hanging.
            with self._progress:
                self._writer_exited = True
                self._progress.notify_all()

    def _writer_loop(self) -> None:
        while True:
            item = self._next_item()
            if item is _STOP:
                break
            ops = [item]
            stop_after = False
            while len(ops) < self._batch_size:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop_after = True
                    break
                ops.append(nxt)
            self._apply_and_publish(ops)
            if stop_after:
                break

    def _next_item(self) -> object:
        """Blocking queue read; while DEGRADED, wake periodically to
        probe the failing checkpoint from the idle writer thread."""
        while True:
            if self._health != DEGRADED_DURABILITY:
                return self._queue.get()
            try:
                return self._queue.get(timeout=self._probe_wait)
            except queue.Empty:
                self._probe_checkpoint()

    def _probe_checkpoint(self) -> None:
        """Retry the failing checkpoint (writer thread, between
        batches — the only window in which the live graph equals the
        published snapshot's capture state)."""
        dur = self._durability
        snap = self._published
        if dur is None or snap is None:  # pragma: no cover - defensive
            self._set_health(HEALTHY)
            return
        try:
            with self._dur_lock:
                dur.checkpoint_now(snap)
        except OSError as exc:
            if exc.errno in _TRANSIENT_ERRNOS:
                with self._progress:
                    self._ckpt_failures += 1
                self._probe_wait = min(
                    self._probe_wait * 2, self._probe_max_backoff_s
                )
                return
            self._record_failure(exc)
            return
        except BaseException as exc:  # noqa: BLE001 - via flush()
            self._record_failure(exc)
            return
        self._probe_wait = self._probe_backoff_s
        self._set_health(HEALTHY)

    def _record_failure(
        self, exc: BaseException, ops: list[Op] | None = None
    ) -> None:
        """Record ``exc`` in the sticky failure slot; with ``ops``,
        also count that batch as consumed (it will never apply)."""
        with self._progress:
            # Keep the first *unreported* failure; once that one has
            # been raised to a caller, a newer failure replaces it so
            # the next flush surfaces fresh trouble too.
            if self._failure is None or self._failure_reported:
                self._failure = exc
                self._failure_reported = False
            if ops is not None:
                self._consumed += len(ops)
            self._progress.notify_all()

    def _log_batch(self, ops: list[Op]) -> tuple[int | None, bool]:
        """Durably log ``ops``; returns ``(seq, ok)``.

        Log-before-publish: the batch's ops and exact apply_batch
        framing hit the disk (and, under fsync="always", the platter)
        before the index is touched, so every epoch a reader can ever
        observe is reconstructible from the data dir.  Transient disk
        errors (``ENOSPC``/``EIO``) are retried with bounded backoff;
        exhausted retries park the batch and move the engine to
        ``read_only`` (see :meth:`_park_until_durable`).  Any other
        failure means no durability for this batch — it is dropped,
        not applied, and surfaces through the sticky record.
        """
        dur = self._durability
        if dur is None:
            return None, True
        attempts = 0
        backoff = self._io_backoff_s
        while True:
            try:
                with self._dur_lock:
                    seq = dur.log_batch(
                        ops, self._on_invalid, self._rebuild_threshold
                    )
            except OSError as exc:
                if exc.errno not in _TRANSIENT_ERRNOS:
                    self._record_failure(exc, ops)
                    return None, False
                with self._progress:
                    self._wal_failures += 1
                attempts += 1
                if attempts <= self._io_retries:
                    with self._progress:
                        self._io_retry_count += 1
                    time.sleep(backoff)
                    backoff = min(
                        backoff * 2, self._probe_max_backoff_s
                    )
                    continue
                return self._park_until_durable(dur, ops, exc)
            except BaseException as exc:  # noqa: BLE001 - via flush()
                self._record_failure(exc, ops)
                return None, False
            return seq, True

    def _park_until_durable(
        self, dur: DurabilityManager, ops: list[Op], cause: BaseException
    ) -> tuple[int | None, bool]:
        """Read-only outage: keep the batch parked (not lost, not
        acked) and probe the disk with exponential backoff until an
        append lands or the engine stops.  The WAL rolls back to a
        record boundary on every failed append, so the sequence number
        is reissued cleanly on each probe."""
        self._enter_read_only(cause)
        wait = self._probe_backoff_s
        while True:
            with self._lock:
                if self._stopping:
                    # Abandoned: deliberately NOT counted consumed, so
                    # stop() reports the loss instead of a clean stop.
                    return None, False
            time.sleep(wait)
            wait = min(wait * 2, self._probe_max_backoff_s)
            try:
                with self._dur_lock:
                    seq = dur.log_batch(
                        ops, self._on_invalid, self._rebuild_threshold
                    )
            except OSError as exc:
                if exc.errno in _TRANSIENT_ERRNOS:
                    with self._progress:
                        self._wal_failures += 1
                    continue
                self._record_failure(exc, ops)
                return None, False
            except BaseException as exc:  # noqa: BLE001 - via flush()
                self._record_failure(exc, ops)
                return None, False
            self._exit_read_only()
            return seq, True

    def _apply_and_publish(self, ops: list[Op]) -> None:
        seq, ok = self._log_batch(ops)
        if ok:
            self._apply_logged(ops, seq)

    # ------------------------------------------------------------------
    # Batch application (fault-classified)
    # ------------------------------------------------------------------
    def _abort_and_record(
        self, ops: list[Op], seq: int | None, exc: BaseException
    ) -> None:
        """The sticky path: mark the logged record aborted so recovery
        skips it, then record the failure (the batch is consumed)."""
        dur = self._durability
        if dur is not None and seq is not None:
            # The batch never published; mark the logged record
            # aborted so recovery skips it too.  apply_batch raises a
            # plan error before any mutation, but a later failure may
            # leave the live graph changed with repair or rebuild not
            # run.  (Losing the marker is safe for the deterministic
            # errors: the same exception fires on replay.)
            try:
                with self._dur_lock:
                    dur.log_abort(seq)
            except BaseException:  # noqa: BLE001 - crash-equivalent
                pass
        self._record_failure(exc, ops)

    def _quarantine(
        self, ops: list[Op], seq: int | None, exc: BaseException
    ) -> None:
        """Poison-batch quarantine: WAL-abort the record, append the
        batch to the dead-letter log, count it consumed, and let the
        writer resume the stream — one bad batch must not take the
        service down."""
        dur = self._durability
        if dur is not None and seq is not None:
            try:
                with self._dur_lock:
                    dur.log_abort(seq)
            except BaseException:  # noqa: BLE001 - crash-equivalent
                pass
        letter = DeadLetter(
            seq=seq or 0,
            ops=tuple(ops),
            on_invalid=self._on_invalid,
            rebuild_threshold=self._rebuild_threshold,
            error=repr(exc),
        )
        if self._dead_letter is not None:
            # Losing the durable copy is like losing the abort marker:
            # tolerable — the in-memory record below still serves this
            # process, and recovery skips the batch either way.
            try:
                with self._dur_lock:
                    self._dead_letter.append(letter)
            except BaseException:  # noqa: BLE001 - crash-equivalent
                pass
        with self._progress:
            self._quarantined.append(letter)
            self._consumed += len(ops)
            self._progress.notify_all()

    def _apply_logged(self, ops: list[Op], seq: int | None) -> None:
        dur = self._durability
        try:
            stats = self._counter.apply_batch(
                ops,
                rebuild_threshold=self._rebuild_threshold,
                on_invalid=self._on_invalid,
            )
        except ReproError as exc:
            # Deterministic by construction: apply_batch raising a
            # library error is a property of the batch against this
            # graph state, not of the environment — it would raise
            # again on retry and on recovery replay.
            if self._on_poison == "quarantine":
                self._quarantine(ops, seq, exc)
            else:
                self._abort_and_record(ops, seq, exc)
            return
        except BaseException as exc:  # noqa: BLE001 - via flush()
            # Never retried: apply_batch may already have mutated the
            # graph, so a second attempt would run against a different
            # state than the one the batch was planned on.
            self._abort_and_record(ops, seq, exc)
            return
        try:
            prev = self._published
            snap = Snapshot.capture(
                self._counter,
                epoch=(prev.epoch if prev is not None else 0) + 1,
                ops_applied=self._base_ops + self._consumed + len(ops),
            )
            # Publication order: observers first, so any state they
            # derive (alert bookkeeping, recorded ground truth) exists
            # before a reader can see the epoch.
            if self._on_publish is not None:
                self._on_publish(snap)
            if self._monitor is not None:
                self._monitor.observe_snapshot(snap)
        except BaseException as exc:  # noqa: BLE001 - reported via flush()
            # The batch IS applied (and logged); only publication
            # failed.  No abort record — recovery must replay it.
            self._record_failure(exc, ops)
            return
        self._published = snap
        with self._progress:
            self._consumed += len(ops)
            self._edges_applied += stats.applied
            self._skipped += len(stats.skipped)
            self._batches += 1
            self._rebuilds += int(stats.rebuilt)
            self._progress.notify_all()
        if dur is not None:
            # Checkpoint *after* publication, from the published frozen
            # snapshot, between batches — the only window in which the
            # live graph still equals the snapshot's capture state.
            try:
                with self._dur_lock:
                    checkpointed = dur.note_applied(seq, snap)
            except OSError as exc:
                if exc.errno in _TRANSIENT_ERRNOS:
                    # The batch is logged, applied, published, and
                    # acked — only the checkpoint failed.  Degrade
                    # (recovery just replays a longer WAL) and let the
                    # idle probe / the next note_applied climb back.
                    with self._progress:
                        self._ckpt_failures += 1
                        if self._health == HEALTHY:
                            self._health = DEGRADED_DURABILITY
                        self._progress.notify_all()
                else:
                    self._record_failure(exc)
            except BaseException as exc:  # noqa: BLE001 - via flush()
                self._record_failure(exc)
            else:
                if checkpointed and self._health == DEGRADED_DURABILITY:
                    self._set_health(HEALTHY)
