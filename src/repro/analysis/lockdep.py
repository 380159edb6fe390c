"""Runtime lock-order detector (the dynamic half of REP001).

:func:`make_lock` is a drop-in factory for ``threading.Lock``: in
production it returns a plain lock with zero overhead; with
instrumentation enabled (``REPRO_LOCKDEP=1`` in the environment at
lock-creation time, or an explicit :func:`enable`) it returns a
:class:`DepLock` that records the global lock-acquisition DAG as the
process runs and raises :class:`~repro.errors.LockOrderError` *before
blocking* on any acquisition that would

* invert the declared ranks (the static rule's canonical order:
  ``_dur_lock(20) -> _lock(30)``), or
* close a cycle in the observed acquisition graph (two unranked locks
  taken in both orders on any two code paths — a deadlock waiting for
  the right interleaving), or
* re-acquire a non-reentrant lock the same thread already holds.

Because edges accumulate globally across threads for the process
lifetime, a single test run through the ``concurrency``/``chaos``
suites certifies every ordering those suites exercised — inversions
are caught even when the two conflicting acquisitions never actually
interleave during the run.

The wrappers stay compatible with ``threading.Condition``: ``Condition``
only needs ``acquire``/``release`` (its ``_is_owned`` fallback probes
with a non-blocking acquire, which deliberately bypasses the
self-deadlock check below).  The detector's own bookkeeping runs under
one plain, uninstrumented mutex.
"""

from __future__ import annotations

import os
import threading

from repro.errors import LockOrderError

__all__ = [
    "DepLock",
    "DepRLock",
    "make_lock",
    "make_rlock",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "edges",
]

_ENV_FLAG = "REPRO_LOCKDEP"

_enabled = bool(os.environ.get(_ENV_FLAG))

#: global acquisition graph: name -> set of names acquired while held
_graph: dict[str, set[str]] = {}
_graph_mu = threading.Lock()
_tls = threading.local()


def enable() -> None:
    """Instrument locks created by :func:`make_lock` from now on."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Forget all recorded edges (test isolation)."""
    with _graph_mu:
        _graph.clear()


def edges() -> dict[str, set[str]]:
    """A copy of the recorded acquisition graph (diagnostics)."""
    with _graph_mu:
        return {k: set(v) for k, v in _graph.items()}


def _held() -> list[DepLock]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _path_exists(src: str, dst: str) -> bool:
    """Reachability in the acquisition graph (caller holds _graph_mu)."""
    seen = {src}
    frontier = [src]
    while frontier:
        node = frontier.pop()
        if node == dst:
            return True
        for succ in _graph.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return False


def _check_and_record(lock: DepLock, blocking: bool) -> None:
    """Validate acquiring ``lock`` given the thread's held stack, then
    record the new edges.  Raises before the caller ever blocks."""
    held = _held()
    if not held:
        return
    for h in held:
        if h is lock:
            if not lock.reentrant:
                if not blocking:
                    return  # Condition._is_owned probe: let it fail
                raise LockOrderError(
                    f"self-deadlock: thread already holds "
                    f"{lock.name!r} and is acquiring it again"
                )
            return  # reentrant re-acquire: no new ordering information
    for h in held:
        if h.rank is not None and lock.rank is not None \
                and h.rank > lock.rank:
            raise LockOrderError(
                f"lock-order inversion: acquiring {lock.name!r} "
                f"(rank {lock.rank}) while holding {h.name!r} "
                f"(rank {h.rank}); declared order is ascending rank"
            )
    with _graph_mu:
        for h in held:
            if _path_exists(lock.name, h.name):
                raise LockOrderError(
                    f"cyclic lock order: acquiring {lock.name!r} while "
                    f"holding {h.name!r}, but {lock.name!r} -> "
                    f"{h.name!r} was already observed on another path"
                )
        for h in held:
            _graph.setdefault(h.name, set()).add(lock.name)


class DepLock:
    """Instrumented ``threading.Lock`` recording acquisition order."""

    reentrant = False

    def __init__(self, name: str, rank: int | None = None) -> None:
        self.name = name
        self.rank = rank
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        _check_and_record(self, blocking)
        got = self._inner.acquire(blocking, timeout)
        if got:
            _held().append(self)
        return got

    def release(self) -> None:
        stack = _held()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<DepLock {self.name!r} rank={self.rank}>"


class DepRLock(DepLock):
    """Instrumented ``threading.RLock``."""

    reentrant = True

    def __init__(self, name: str, rank: int | None = None) -> None:
        super().__init__(name, rank)
        self._inner = threading.RLock()

    def locked(self) -> bool:
        # RLock has no .locked() before 3.12; a bare try-acquire would
        # succeed reentrantly for the owning thread, so ask ownership
        # first (_is_owned exists on both the C and Python RLocks).
        if self._inner._is_owned():
            return True
        if self._inner.acquire(blocking=False):
            self._inner.release()
            return False
        return True


def make_lock(name: str, rank: int | None = None):
    """A ``threading.Lock`` (production) or :class:`DepLock`
    (instrumented) — decided when the lock is *created*, so enabling
    instrumentation later never taxes existing hot paths."""
    if _enabled:
        return DepLock(name, rank)
    return threading.Lock()


def make_rlock(name: str, rank: int | None = None):
    if _enabled:
        return DepRLock(name, rank)
    return threading.RLock()
