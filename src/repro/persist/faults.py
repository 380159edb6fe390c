"""Fault-injection seam for the durability subsystem.

Every durable side effect in :mod:`repro.persist` — each ``os.write``,
``os.fsync``, and ``os.replace`` that the WAL and checkpoint writers
issue — announces itself through :func:`io_event` *before* executing.
The crash-recovery property suite installs a hook that raises
:class:`SimulatedCrash` at the N-th event and then abandons the session,
so the on-disk state is exactly the prefix of syscalls a real process
death at that instant would have left behind (all persist file I/O is
unbuffered, so a Python-level write *is* an OS-level write).

Hook *installation* is thread-safe and scope-able: :func:`fault_scope`
installs a hook for a dynamic extent and restores the previous one on
exit, serializing with any concurrent install/clear under a module
lock, so a test can inject into an engine whose writer thread is
issuing durable I/O without racing the installation itself.  The hook remains process-global (there is one
durability layer per process); a hook that will be *invoked* from
several threads must be internally thread-safe — see
:class:`repro.faults.FaultInjector` for the stock one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from collections.abc import Callable, Iterator

__all__ = ["SimulatedCrash", "fault_scope", "io_event", "set_fault_hook"]


class SimulatedCrash(BaseException):
    """Raised by test hooks to model process death at an I/O boundary.

    Derives from :class:`BaseException` so production code that guards
    durable operations with ``except Exception`` cannot accidentally
    swallow a simulated crash and keep running.
    """


_lock = threading.Lock()
_hook: Callable[[str], None] | None = None


def set_fault_hook(hook: Callable[[str], None] | None) -> None:
    """Install (or clear, with ``None``) the global I/O event hook.

    Installation is serialized under a module lock; prefer
    :func:`fault_scope` so the previous hook is restored even when the
    scoped code raises.
    """
    global _hook
    with _lock:
        _hook = hook


@contextmanager
def fault_scope(
    hook: Callable[[str], None] | None,
) -> Iterator[Callable[[str], None] | None]:
    """Install ``hook`` for the duration of the ``with`` block.

    The previously installed hook (usually ``None``) is saved under the
    module lock and restored on exit no matter how the block leaves —
    including via :class:`SimulatedCrash` — so scopes nest and a
    crashed test cannot leak its hook into the next one.
    """
    global _hook
    with _lock:
        previous = _hook
        _hook = hook
    try:
        yield hook
    finally:
        with _lock:
            _hook = previous


def io_event(tag: str) -> None:
    """Announce one imminent durable side effect (e.g. ``"wal.write"``).

    The hook reference is read atomically (one attribute load) and
    invoked outside the installation lock, so concurrent announcers —
    the engine's writer thread and a caller thread running ``stop()``'s
    final sync — never contend here.
    """
    hook = _hook
    if hook is not None:
        hook(tag)
