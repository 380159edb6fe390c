"""The replica process: checkpoint bootstrap + WAL-suffix streaming.

``replica_main`` is the entry point of one replica process in the
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
* any other exception says nothing about the record, so it is never
  read as "skip": it ends the replica process, and the router takes
  the replica out of rotation;
* an ``ABORT`` for a record this replica *successfully applied* means
  the primary's failure was nondeterministic and the replica has
  diverged — it re-bootstraps from the newest checkpoint (as does a
  :class:`~repro.errors.WalTailGapError` after a prune outran the
  tailer, or a :class:`~repro.errors.WalRolledBackError`).

The process runs two threads, so no control RPC waits behind a write:

* the **apply thread** is the only code that polls the tailer (every
  ``_IDLE_POLL`` when idle), mutates the counter, takes snapshots,
  publishes label images or re-bootstraps.  After each record it
  publishes the new snapshot's labels into the replica's memory-mapped
  image (:class:`~repro.cluster.image.ImageWriter`), which the client
  reads in its own process, and only then one immutable
  :class:`_Published` — the snapshot's epoch with its ``ops_applied``
  and ``last_seq`` — by a single assignment.  So an epoch is never reported
  before its image, snapshot and digest exist: once ``status`` says
  epoch ``e``, every read answers at ``e`` or later.  A re-bootstrap
  first withdraws the image and the published view, so the diverged
  state stops being served before recovery starts, and publishes again
  only once the new state is complete;
* the **pipe thread** answers the control RPCs (``status``, ``digests``,
  ``state_bytes``, ``stop``); queries never reach it.  ``status`` reads
  the published view and takes no lock, so a long rebuild in
  ``apply_batch`` does not delay it; while no view is published (a
  re-bootstrap) it waits for the next one.  ``state_bytes`` and
  ``digests`` read live apply-thread state, so they and each record's
  apply hold one lock.  The pipe thread also notices a dead apply
  thread within ``_LIVENESS_POLL`` and ends ``replica_main`` with its
  exception; ``stop`` joins the apply thread before it replies.  The
  image file is deleted when ``replica_main`` returns.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from pathlib import Path
from typing import NamedTuple

from repro.errors import (
    PersistenceError,
    RecoveryError,
    ReproError,
    WalRolledBackError,
    WalTailGapError,
)
from repro.persist.recovery import WAL_DIR, recover
from repro.persist.tail import WalTailer
from repro.persist.wal import ABORT, BATCH

from repro.cluster.image import ImageWriter

__all__ = ["replica_main"]

#: seconds the idle apply thread sleeps between tail polls
_IDLE_POLL = 0.002
#: seconds the pipe thread blocks on the pipe before it checks that
#: the apply thread is still alive
_LIVENESS_POLL = 0.05
#: bootstrap attempts (recovery can race a concurrent checkpoint/prune)
_BOOTSTRAP_TRIES = 5


def _digest(counter) -> str:
    return hashlib.sha256(counter.to_bytes()).hexdigest()


class _Published(NamedTuple):
    """What ``status`` reports; replaced whole, never mutated."""

    epoch: int
    ops_applied: int
    last_seq: int


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

    def published(self, last_seq: int) -> _Published:
        return _Published(self.snapshot.epoch, self.ops_applied, last_seq)


def replica_main(
    conn,
    data_dir: str,
    image_path: str,
    strategy: str | None = None,
    record_digests: bool = False,
) -> None:
    """Follow ``data_dir`` as a replica: publish each epoch's labels
    into the image at ``image_path`` and answer control RPCs on
    ``conn``.

    Runs until a ``("stop",)`` request or EOF on the pipe.  Requests are
    tuples ``(method, *args)``; responses are ``("ok", value)`` or
    ``("err", type_name, message)``.
    """
    data_dir = Path(data_dir)
    image = ImageWriter(image_path)
    try:
        _serve(conn, data_dir, image, strategy, record_digests)
    finally:
        image.close()
        conn.close()


def _serve(conn, data_dir: Path, image: ImageWriter,
           strategy: str | None, record_digests: bool) -> None:
    state = _ReplicaState(data_dir, strategy, record_digests)
    image.publish(state.snapshot)
    #: the pipe thread's only view of the apply thread's progress;
    #: ``None`` while a re-bootstrap builds the next state
    view: _Published | None = state.published(state.tailer.last_seq)
    state_lock = threading.Lock()
    stopping = threading.Event()
    failure: list[BaseException] = []
    resyncs = 0
    records_applied = 0
    records_skipped = 0

    # -- apply thread ----------------------------------------------------
    def publish(last_seq: int) -> None:
        nonlocal view
        # Drop the interpreter lock between the apply and the image
        # append, so a status request that arrived during the apply
        # waits for one of them, not for both.
        time.sleep(0)
        image.publish(state.snapshot)
        view = state.published(last_seq)

    def rebootstrap() -> None:
        nonlocal state, view, resyncs
        image.withdraw()
        view = None
        with state_lock:
            state = _ReplicaState(data_dir, strategy, record_digests)
        resyncs += 1
        publish(state.tailer.last_seq)

    def apply(record) -> None:
        nonlocal records_applied, records_skipped
        with state_lock:
            state.ops_applied += len(record.ops)
            try:
                state.counter.apply_batch(
                    list(record.ops),
                    rebuild_threshold=record.rebuild_threshold,
                    on_invalid=record.on_invalid,
                )
            except ReproError:
                records_skipped += 1
                return  # deterministic failure: primary skipped too
            state.applied_seqs.add(record.seq)
            state.epoch += 1
            records_applied += 1
            state.snapshot = state.counter.snapshot(
                state.epoch, state.ops_applied
            )
            if record_digests:
                state.digests[state.epoch] = _digest(state.counter)

    def drain_tail() -> bool:
        """Apply what the tailer has; ``False`` when it had nothing."""
        try:
            records = state.tailer.poll()
        except (WalTailGapError, WalRolledBackError):
            rebootstrap()
            return True
        for record in records:
            if stopping.is_set():
                break
            if record.kind == ABORT and record.seq in state.applied_seqs:
                # We applied a batch the primary rolled back: the
                # primary's failure was nondeterministic and every
                # state since is not the primary's.  Start over from
                # its durable truth.
                rebootstrap()
                break
            if record.kind == BATCH:
                apply(record)
            # An ABORT of a record we also skipped (or a future kind)
            # only advances the cursor.
            publish(record.seq)
        return bool(records)

    def apply_loop() -> None:
        try:
            while not stopping.is_set():
                if not drain_tail():
                    stopping.wait(_IDLE_POLL)
        except BaseException as exc:  # noqa: BLE001 - pipe thread re-raises
            failure.append(exc)

    applier = threading.Thread(
        target=apply_loop, name="repro-replica-apply", daemon=True
    )

    # -- pipe thread -----------------------------------------------------
    def halt() -> None:
        stopping.set()
        applier.join()

    def current() -> _Published:
        """The published view; waits out a re-bootstrap, and raises the
        apply thread's exception once it has died."""
        published = view
        while published is None:
            if failure:
                raise failure[0]
            time.sleep(_IDLE_POLL)
            published = view
        return published

    def status(published: _Published) -> dict:
        return {
            "epoch": published.epoch,
            "last_seq": published.last_seq,
            "ops_applied": published.ops_applied,
            "records_applied": records_applied,
            "records_skipped": records_skipped,
            "resyncs": resyncs,
            "pid": os.getpid(),
        }

    def answer(method: str) -> tuple:
        published = current()
        try:
            if method == "status":
                value = status(published)
            elif method == "digests":
                with state_lock:
                    value = dict(state.digests)
            elif method == "state_bytes":
                with state_lock:
                    value = state.counter.to_bytes()
            else:
                return ("err", "ClusterError",
                        f"unknown replica method {method!r}")
        except Exception as exc:  # noqa: BLE001 - shipped to the client
            return ("err", type(exc).__name__, str(exc))
        return ("ok", value)

    applier.start()
    try:
        while True:
            if failure:
                raise failure[0]
            if not conn.poll(_LIVENESS_POLL):
                continue
            method = conn.recv()[0]
            if method == "stop":
                halt()
                if failure:
                    raise failure[0]
                conn.send(("ok", status(current())))
                break
            conn.send(answer(method))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away: exit quietly
    finally:
        halt()
