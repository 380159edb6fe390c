"""Query routing across replicas: load balancing, failover, lag.

The router is itself a :class:`repro.service.QueryAPI` backend: it
answers each query from one live replica (round-robin), failing over to
the next on :class:`~repro.errors.ReplicaUnavailableError` and raising
:class:`~repro.errors.NoReplicaAvailableError` only when every replica
is out.  Its ``epoch`` is the **minimum** epoch over live replicas —
the consistency floor every routed query is guaranteed to be at least
as fresh as.  Each replica's epoch is monotone and replicas only ever
*leave* the live set, so the floor is monotone too (the invariant
``drive_mixed`` readers assert).

Locking: the router's own lock (rank 5, below every engine and client
lock) guards only the rotation cursor; it is **never held across a
read or an RPC** — a slow replica must not serialize the other
readers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.analysis import lockdep
from repro.errors import NoReplicaAvailableError, ReplicaUnavailableError
from repro.service.health import FAILED, HEALTHY
from repro.types import CycleCount, PathCount

from repro.cluster.client import ReplicaClient

__all__ = ["ClusterRouter"]


class ClusterRouter:
    """Round-robin :class:`~repro.service.QueryAPI` over replica clients.

    Parameters
    ----------
    clients:
        The replica handles to balance over.
    primary_epoch:
        Optional zero-argument callable returning the primary's current
        published epoch; enables :meth:`lag`.
    """

    def __init__(
        self,
        clients: Sequence[ReplicaClient],
        primary_epoch: Callable[[], int] | None = None,
    ) -> None:
        if not clients:
            raise NoReplicaAvailableError("router needs at least one replica")
        self._clients = list(clients)
        self._primary_epoch = primary_epoch
        self._lock = lockdep.make_lock("ClusterRouter._lock", rank=5)
        self._cursor = 0
        self.queries_routed = 0
        self.failovers = 0

    # ------------------------------------------------------------------
    def live(self) -> list[ReplicaClient]:
        """Replicas still in rotation (connection not latched FAILED)."""
        return [c for c in self._clients if c.health == HEALTHY]

    def _rotation(self) -> list[ReplicaClient]:
        """Live replicas, starting at the rotation cursor (advanced by
        one per call — classic round robin)."""
        with self._lock:
            start = self._cursor
            self._cursor += 1
        live = self.live()
        if not live:
            raise NoReplicaAvailableError(
                "every replica has failed; no backend can answer"
            )
        k = start % len(live)
        return live[k:] + live[:k]

    def _route(self, method: str, *args):
        last: ReplicaUnavailableError | None = None
        for client in self._rotation():
            try:
                value = getattr(client, method)(*args)
            except ReplicaUnavailableError as exc:
                # The client latched FAILED; try the next one.
                last = exc
                with self._lock:
                    self.failovers += 1
                continue
            with self._lock:
                self.queries_routed += 1
            return value
        raise NoReplicaAvailableError(
            f"no replica could answer {method!r}"
        ) from last

    # ------------------------------------------------------------------
    # QueryAPI
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Minimum epoch across live replicas: the consistency floor of
        the next routed query (monotone while replicas only fail out)."""
        floors = []
        for client in self.live():
            try:
                floors.append(client.epoch)
            except ReplicaUnavailableError:
                continue
        if not floors:
            raise NoReplicaAvailableError(
                "every replica has failed; no epoch floor"
            )
        return min(floors)

    def sccnt(self, v: int) -> CycleCount:
        return self._route("sccnt", v)

    def sccnt_many(self, vertices: Sequence[int]) -> list[CycleCount]:
        return self._route("sccnt_many", vertices)

    def spcnt(self, x: int, y: int) -> PathCount:
        return self._route("spcnt", x, y)

    def spcnt_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[PathCount]:
        return self._route("spcnt_many", pairs)

    def top_suspicious(self, k: int = 10) -> list[tuple[int, CycleCount]]:
        return self._route("top_suspicious", k)

    # ------------------------------------------------------------------
    # Health / lag
    # ------------------------------------------------------------------
    def lag(self) -> dict[str, int | None]:
        """Per-replica epoch lag behind the primary (``None`` for a
        failed replica).  Requires ``primary_epoch``."""
        if self._primary_epoch is None:
            raise NoReplicaAvailableError(
                "router was built without a primary_epoch source"
            )
        primary = self._primary_epoch()
        out: dict[str, int | None] = {}
        for client in self._clients:
            if client.health != HEALTHY:
                out[client.name] = None
                continue
            try:
                out[client.name] = max(0, primary - client.epoch)
            except ReplicaUnavailableError:
                out[client.name] = None
        return out

    def health(self) -> dict[str, dict]:
        """Per-replica health report (state machine vocabulary of
        :mod:`repro.service.health`, plus epoch where reachable)."""
        report: dict[str, dict] = {}
        for client in self._clients:
            entry: dict = {"state": client.health}
            if client.health == HEALTHY:
                try:
                    status = client.status()
                    entry["epoch"] = status["epoch"]
                    entry["last_seq"] = status["last_seq"]
                    entry["resyncs"] = status["resyncs"]
                except ReplicaUnavailableError:
                    entry["state"] = FAILED
            report[client.name] = entry
        return report

    def __repr__(self) -> str:
        return (
            f"ClusterRouter({len(self.live())}/{len(self._clients)} live, "
            f"routed={self.queries_routed}, failovers={self.failovers})"
        )
