"""The replica process: checkpoint bootstrap + WAL-suffix streaming.

``replica_main`` is the entry point of one reader process in the
cluster.  It reconstructs the primary's state by exactly the crash
recovery path (:func:`repro.persist.recover` — newest checkpoint chain
plus acknowledged WAL suffix, bit-identical to a serial replay, with
runs of rebuild-bound records folded into one build), then keeps
following the live log with a :class:`~repro.persist.WalTailer`,
applying each batch record through ``apply_batch`` under the framing
the primary used — one record at a time, since every tailed record is
published as its own epoch.  Because batched maintenance is
deterministic in its inputs, the replica's counter bytes equal the
primary's at every epoch — the property the cluster harness
machine-checks via per-epoch SHA-256 digests of ``counter.to_bytes()``.

Failure semantics mirror recovery:

* a record whose ``apply_batch`` raises a deterministic
  :class:`~repro.errors.ReproError` is skipped with **no epoch bump** —
  the primary kept its pre-batch state when the same exception fired;
* a :class:`~repro.errors.WorkerCrashError` is not deterministic (the
  primary retries it), so it is never read as "skip": it ends the
  replica process, and the router takes the replica out of rotation;
* an ``ABORT`` for a record this replica *successfully applied* means
  the primary's failure was nondeterministic and the replica has
  diverged — it re-bootstraps from the newest checkpoint (as does a
  :class:`~repro.errors.WalTailGapError` after a prune outran the
  tailer, or a :class:`~repro.errors.WalRolledBackError`).

The process is single-threaded: one loop alternates between answering
queries from its published snapshot (queries are prioritized) and
draining the tailer.  Queries are answered from a frozen
:class:`~repro.service.Snapshot`, so a long repair in ``apply_batch``
never blocks correctness — only freshness (that is the replica's lag).
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

from repro.errors import (
    PersistenceError,
    RecoveryError,
    ReproError,
    WalRolledBackError,
    WalTailGapError,
    WorkerCrashError,
)
from repro.persist.recovery import WAL_DIR, recover
from repro.persist.tail import WalTailer
from repro.persist.wal import ABORT, BATCH

__all__ = ["replica_main"]

#: seconds the idle loop sleeps on the query pipe between tail polls
_IDLE_POLL = 0.002
#: bootstrap attempts (recovery can race a concurrent checkpoint/prune)
_BOOTSTRAP_TRIES = 5


def _digest(counter) -> str:
    return hashlib.sha256(counter.to_bytes()).hexdigest()


class _ReplicaState:
    """Everything a bootstrap (or re-bootstrap) resets atomically."""

    def __init__(self, data_dir: Path, strategy: str | None,
                 record_digests: bool) -> None:
        last_error: Exception | None = None
        for attempt in range(_BOOTSTRAP_TRIES):
            try:
                result = recover(data_dir, strategy)
                break
            except (RecoveryError, PersistenceError, OSError) as exc:
                # The primary may be mid-checkpoint or mid-prune; the
                # directory converges to a recoverable state.
                last_error = exc
                time.sleep(0.01 * (attempt + 1))
        else:
            raise RecoveryError(
                f"replica bootstrap failed after {_BOOTSTRAP_TRIES} "
                f"attempts: {last_error!r}"
            )
        self.counter = result.counter
        self.epoch = result.epoch
        self.ops_applied = result.ops_applied
        self.tailer = WalTailer(data_dir / WAL_DIR, after_seq=result.last_seq)
        self.snapshot = self.counter.snapshot(self.epoch, self.ops_applied)
        #: seqs applied since this bootstrap — an ABORT naming one of
        #: these is the divergence signal
        self.applied_seqs: set[int] = set()
        #: epoch -> sha256(to_bytes()); only epochs published from THIS
        #: bootstrap lineage (cleared on divergence: those states were
        #: never the primary's)
        self.digests: dict[int, str] = {}
        if record_digests:
            self.digests[self.epoch] = _digest(self.counter)


def replica_main(
    conn,
    data_dir: str,
    strategy: str | None = None,
    record_digests: bool = False,
) -> None:
    """Serve queries over ``conn`` from a tailed replica of ``data_dir``.

    Runs until a ``("stop",)`` request or EOF on the pipe.  Requests are
    tuples ``(method, *args)``; responses are ``("ok", value)`` or
    ``("err", type_name, message)``.
    """
    data_dir = Path(data_dir)
    state = _ReplicaState(data_dir, strategy, record_digests)
    resyncs = 0
    records_applied = 0
    records_skipped = 0

    def rebootstrap() -> None:
        nonlocal state, resyncs
        state = _ReplicaState(data_dir, strategy, record_digests)
        resyncs += 1

    def drain_tail() -> None:
        nonlocal records_applied, records_skipped
        try:
            records = state.tailer.poll()
        except (WalTailGapError, WalRolledBackError):
            rebootstrap()
            return
        for record in records:
            if record.kind == ABORT:
                if record.seq in state.applied_seqs:
                    # We applied a batch the primary rolled back: the
                    # primary's failure was nondeterministic and every
                    # state since is not the primary's.  Start over from
                    # its durable truth.
                    rebootstrap()
                    return
                continue  # abort of a record we also skipped
            if record.kind != BATCH:  # pragma: no cover - future kinds
                continue
            state.ops_applied += len(record.ops)
            try:
                state.counter.apply_batch(
                    list(record.ops),
                    rebuild_threshold=record.rebuild_threshold,
                    on_invalid=record.on_invalid,
                )
            except WorkerCrashError:
                raise  # transient: the primary retried, it did not skip
            except ReproError:
                records_skipped += 1
                continue  # deterministic failure: primary skipped too
            state.applied_seqs.add(record.seq)
            state.epoch += 1
            records_applied += 1
            state.snapshot = state.counter.snapshot(
                state.epoch, state.ops_applied
            )
            if record_digests:
                state.digests[state.epoch] = _digest(state.counter)

    def status() -> dict:
        return {
            "epoch": state.epoch,
            "last_seq": state.tailer.last_seq,
            "ops_applied": state.ops_applied,
            "records_applied": records_applied,
            "records_skipped": records_skipped,
            "resyncs": resyncs,
            "pid": os.getpid(),
        }

    def handle(request) -> bool:
        """Answer one request; ``False`` ends the serving loop."""
        method, *args = request
        snap = state.snapshot
        try:
            if method == "sccnt":
                value = snap.sccnt(*args)
            elif method == "sccnt_many":
                value = snap.sccnt_many(*args)
            elif method == "spcnt":
                value = snap.spcnt(*args)
            elif method == "spcnt_many":
                value = snap.spcnt_many(*args)
            elif method == "top_suspicious":
                value = snap.top_suspicious(*args)
            elif method == "status":
                value = status()
            elif method == "digests":
                value = dict(state.digests)
            elif method == "state_bytes":
                value = state.counter.to_bytes()
            elif method == "stop":
                conn.send(("ok", status()))
                return False
            else:
                conn.send(("err", "ClusterError",
                           f"unknown replica method {method!r}"))
                return True
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            conn.send(("err", type(exc).__name__, str(exc)))
            return True
        conn.send(("ok", value))
        return True

    try:
        running = True
        while running:
            # Queries first — readers should never wait behind a long
            # repair that is only about freshness, not correctness.
            answered = False
            while conn.poll(0):
                answered = True
                if not handle(conn.recv()):
                    running = False
                    break
            if not running:
                break
            before = state.tailer.records_delivered
            drain_tail()
            if not answered and state.tailer.records_delivered == before:
                # Idle: sleep on the pipe so a query wakes us instantly.
                conn.poll(_IDLE_POLL)
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away: exit quietly
    finally:
        conn.close()
