"""Health states of the serving engine's self-healing state machine.

The engine distinguishes *how broken* it is so reads can keep flowing
through every fault the taxonomy knows how to survive:

``HEALTHY``
    Durable acknowledgement works; writes admitted normally.

``DEGRADED_DURABILITY``
    The WAL is acking but **checkpointing** is failing (``ENOSPC`` /
    ``EIO``).  Writes are still durably logged and applied; recovery
    just has a longer WAL replay ahead of it.  A background probe
    retries the checkpoint and climbs back to ``HEALTHY``.

``READ_ONLY``
    WAL appends themselves keep failing past the bounded retries, so
    the engine can no longer durably ack writes.  New writes are
    rejected with :class:`~repro.errors.EngineReadOnlyError`; readers
    keep answering from the last published epoch.  The in-flight batch
    is parked (not lost, not acked) and a probe with exponential
    backoff retries the append; success re-admits writes.

``FAILED``
    The writer thread died with an unclassifiable error.  Reads raise the sticky failure;
    the process should be restarted and recovered from disk.

Ordering is by severity; ``severity()`` gives the comparable rank.
"""

from __future__ import annotations

__all__ = [
    "DEGRADED_DURABILITY",
    "FAILED",
    "HEALTHY",
    "READ_ONLY",
    "severity",
]

HEALTHY = "healthy"
DEGRADED_DURABILITY = "degraded_durability"
READ_ONLY = "read_only"
FAILED = "failed"

_SEVERITY = {HEALTHY: 0, DEGRADED_DURABILITY: 1, READ_ONLY: 2, FAILED: 3}


def severity(state: str) -> int:
    """Rank of a health state (higher is worse); raises on unknown."""
    return _SEVERITY[state]
