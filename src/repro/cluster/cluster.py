"""The sharded serving tier: one primary, N replica processes, a router.

Topology (one process per box)::

    clients ──► Cluster.submit ──► ServeEngine (primary)
                                     │  WAL (log-before-publish)
                      ┌──────────────┼──────────────┐
                 WalTailer      WalTailer       WalTailer
                 replica 0      replica 1       replica 2     (processes)
                      │              │              │
                   snapshot       snapshot       snapshot
                      └──────┬───────┴──────┬───────┘
                             ▼              ▼
                        ClusterRouter.sccnt / spcnt / ...

The WAL **is** the replication transport: the primary's
log-before-publish discipline (PR 4) means the log is a complete,
durable, framed description of every published epoch, so replicas need
no second channel — they bootstrap from the newest checkpoint via
:func:`repro.persist.recover` (RPLS per-vertex bytes, one memcpy per
vertex) and stream the suffix with a
:class:`~repro.persist.WalTailer`.

Consistency: every replica epoch is bit-identical to the primary's
state at that epoch (deterministic batched maintenance over identical
framing).  With ``record_digests=True`` both sides keep per-epoch
SHA-256 digests of ``counter.to_bytes()`` and
:meth:`Cluster.verify_replicas` machine-checks the claim — the cluster
benchmark runs that gate before it starts timing.  Replicas lag the
primary by however many epochs they have not yet tailed; the router
reports the lag but never routes a query to a dead replica.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time

from repro.core.counter import ShortestCycleCounter
from repro.errors import ClusterError, ConfigurationError
from repro.graph.digraph import DiGraph
from repro.service.config import ServeConfig
from repro.service.engine import ServeEngine
from repro.service.snapshot import Snapshot

from repro.cluster.client import ReplicaClient
from repro.cluster.replica import replica_main
from repro.cluster.router import ClusterRouter

__all__ = ["Cluster"]


def _context():
    # forkserver: replicas are forked from a clean server process, so
    # starting them is cheap *and* safe in a threaded parent (the
    # primary's writer thread is already running when replicas start).
    # Its bootstrap re-imports __main__ when that module has a file; an
    # interactive parent ("<stdin>", a REPL) has none that exists on
    # disk, so there plain fork is the only context whose replicas can
    # start at all.
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    importable_main = main_file is None or os.path.exists(main_file)
    for method in (
        ("forkserver", "spawn") if importable_main else ("fork",)
    ):
        try:
            return multiprocessing.get_context(method)
        except ValueError:  # pragma: no cover - platform-dependent
            continue
    return multiprocessing.get_context()  # pragma: no cover


class Cluster:
    """A primary :class:`~repro.service.ServeEngine` plus ``replicas``
    reader processes tailing its WAL, behind a :class:`ClusterRouter`.

    Parameters
    ----------
    source:
        Graph or counter for the primary (as for :class:`ServeEngine`;
        an existing recoverable ``data_dir`` wins over it).
    config:
        The primary's :class:`~repro.service.ServeConfig`.
        ``config.durability.data_dir`` is **required** — the WAL is the
        replication transport, so a memory-only engine has nothing to
        replicate from.
    replicas:
        Reader processes to launch at :meth:`start`.
    record_digests:
        Keep per-epoch SHA-256 digests of the counter bytes on the
        primary *and* every replica, enabling
        :meth:`verify_replicas`.  Costs one serialization pass per
        published epoch — leave off for throughput measurement runs.
    replica_timeout:
        Per-RPC timeout for replica clients.
    monitor:
        Optional :class:`~repro.monitor.CycleMonitor` for the primary.
    """

    def __init__(
        self,
        source: DiGraph | ShortestCycleCounter | None = None,
        config: ServeConfig | None = None,
        *,
        replicas: int = 2,
        record_digests: bool = True,
        replica_timeout: float = 30.0,
        monitor=None,
    ) -> None:
        if replicas < 1:
            raise ConfigurationError("replicas must be at least 1")
        if config is None or config.durability.data_dir is None:
            raise ConfigurationError(
                "cluster serving requires config.durability.data_dir: "
                "the primary's WAL is the replication transport replicas "
                "bootstrap from and tail"
            )
        self._replicas = replicas
        self._record_digests = record_digests
        self._replica_timeout = replica_timeout
        #: primary epoch -> sha256(counter.to_bytes()) at that epoch
        self._digests: dict[int, str] = {}
        self._engine = ServeEngine(
            source,
            config=config,
            monitor=monitor,
            on_publish=self._digest_epoch if record_digests else None,
        )
        self._clients: list[ReplicaClient] = []
        self._router: ClusterRouter | None = None
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    def _digest_epoch(self, snap: Snapshot) -> None:
        # Writer thread, between batches: the live graph still equals
        # the snapshot's capture state (the checkpoint_now precondition),
        # so serializing through a throwaway counter is exact.
        counter = ShortestCycleCounter(
            snap.index, self._engine.counter.strategy
        )
        self._digests[snap.epoch] = hashlib.sha256(
            counter.to_bytes()
        ).hexdigest()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> Cluster:
        """Start the primary, spawn the replica processes (each
        bootstraps from the newest checkpoint), and build the router."""
        if self._started:
            raise ClusterError("cluster already started")
        self._engine.start()
        data_dir = self._engine.config.durability.data_dir
        ctx = _context()
        try:
            for i in range(self._replicas):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=replica_main,
                    args=(child, str(data_dir)),
                    kwargs={"record_digests": self._record_digests},
                    name=f"repro-replica-{i}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._clients.append(
                    ReplicaClient(
                        parent,
                        proc,
                        f"replica-{i}",
                        timeout=self._replica_timeout,
                    )
                )
        except Exception:
            self.stop()
            raise
        self._router = ClusterRouter(
            self._clients,
            primary_epoch=lambda: self._engine.snapshot().epoch,
        )
        self._started = True
        return self

    def stop(self) -> None:
        """Stop replicas first (they must not tail the shutdown
        checkpoint's segment prune mid-poll), then the primary.
        Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        for client in self._clients:
            client.stop()
        self._engine.stop()

    def __enter__(self) -> Cluster:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Write path (primary) and read path (router)
    # ------------------------------------------------------------------
    @property
    def engine(self) -> ServeEngine:
        """The primary."""
        return self._engine

    @property
    def router(self) -> ClusterRouter:
        """The query front-end (a :class:`~repro.service.QueryAPI`)."""
        if self._router is None:
            raise ClusterError("cluster not started")
        return self._router

    def submit(self, op: str, tail: int, head: int) -> bool:
        return self._engine.submit(op, tail, head)

    def submit_many(self, ops) -> int:
        return self._engine.submit_many(ops)

    def flush(self, timeout: float | None = None) -> Snapshot:
        return self._engine.flush(timeout)

    # ------------------------------------------------------------------
    # Consistency / observability
    # ------------------------------------------------------------------
    def wait_for_epoch(
        self, epoch: int, timeout: float = 30.0
    ) -> None:
        """Block until every *live* replica has tailed up to ``epoch``
        (raises :class:`ClusterError` on timeout or if every replica
        died)."""
        deadline = time.monotonic() + timeout
        while True:
            live = self.router.live()
            if not live:
                raise ClusterError(
                    "every replica failed while waiting for epoch "
                    f"{epoch}"
                )
            behind = [
                c.name for c in live if c.status()["epoch"] < epoch
            ]
            if not behind:
                return
            if time.monotonic() >= deadline:
                raise ClusterError(
                    f"replicas {behind} still behind epoch {epoch} "
                    f"after {timeout}s"
                )
            time.sleep(0.005)

    def verify_replicas(self) -> dict[str, int]:
        """Machine-check bit-identity: every epoch a replica published
        must carry the same ``to_bytes()`` SHA-256 the primary recorded
        for that epoch.  Returns ``{replica: epochs checked}``; raises
        :class:`ClusterError` on any mismatch (or when digest recording
        is off)."""
        if not self._record_digests:
            raise ClusterError(
                "verify_replicas needs record_digests=True"
            )
        checked: dict[str, int] = {}
        for client in self.router.live():
            matched = 0
            for epoch, digest in sorted(client.digests().items()):
                expected = self._digests.get(epoch)
                if expected is None:
                    # The primary recorded every published epoch, so an
                    # unknown epoch on a replica is itself divergence.
                    raise ClusterError(
                        f"{client.name} published epoch {epoch} the "
                        "primary never recorded"
                    )
                if digest != expected:
                    raise ClusterError(
                        f"{client.name} diverged at epoch {epoch}: "
                        f"replica sha256 {digest[:12]}… != primary "
                        f"{expected[:12]}…"
                    )
                matched += 1
            if matched == 0:
                raise ClusterError(
                    f"{client.name} published no verifiable epochs"
                )
            checked[client.name] = matched
        if not checked:
            raise ClusterError("no live replicas to verify")
        return checked

    def status(self) -> dict:
        """One structured health/lag report for the whole tier."""
        primary = {
            "epoch": self._engine.snapshot().epoch,
            "health": self._engine.health,
        }
        return {
            "primary": primary,
            "replicas": self.router.health(),
            "lag": self.router.lag(),
        }
