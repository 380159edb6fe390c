"""Multi-worker index construction: optimistic waves, exact commits.

Construction runs one pruned counting BFS pair per hub
(:func:`~repro.build.worker.hub_bfs`), in rank order, and every BFS
reads only labels owned by strictly higher-ranked hubs.  This module
runs that loop on the master alone (one worker: the serial build) or
spreads it across worker *processes*, with the result
**bit-identical** for any worker count:

1. The master runs a **serial prefix** (the top-ranked hubs — their
   BFS trees blanket the graph and would conflict constantly), all of
   the ranks when there is one worker.
2. The remaining ranks are cut into rank-contiguous **waves**
   (:mod:`repro.build.waves`).  Before each wave the labels committed
   since the last broadcast — before the first wave, the prefix tables
   themselves — are shipped to every worker as packed ``RPLS`` bytes
   (the label store's one-memcpy-per-vertex serialization), so all
   workers hold the identical frozen prefix.
3. Workers run their share of the wave's hubs *speculatively* against
   that frozen prefix and return, per hub and BFS side, the entries the
   hub would append.
4. The master **commits in rank order**.  A speculative side is taken
   verbatim unless the wave's earlier commits put a *canonical* entry
   on the hub vertex's hub side; on a hit the master re-runs that side
   against the authoritative tables (which at that point are exactly
   the serial builder's state) — conflicts cost one extra BFS, never
   correctness.

   *Why that single test suffices:* every pruning decision of hub
   ``p``'s BFS joins ``hub_dist`` — the canonical hub-side entries of
   the hub vertex ``h``, all with ranks ``< p`` — against the dequeued
   vertex's labels, and consults nothing else.  A frozen-state
   ``hub_dist`` contains only ranks above the wave, while every
   in-wave label write carries an in-wave rank, so in-wave writes at
   dequeued vertices can never join and the speculative trajectory
   (queue evolution, counts, flags) is exactly serial.  The only way
   an in-wave commit can perturb the BFS is by extending ``hub_dist``
   itself, i.e. by landing a canonical entry on ``label_side(h)`` —
   which is precisely what the committer tests.  Non-canonical writes
   never matter (the pruning query skips them), and a hub's own
   forward entries (rank ``p``) are invisible to its backward pass
   (which reads ranks ``< p``), so there is no self-conflict.

Per-vertex label lists stay sorted because commits happen in rank
order, which also makes the packed stores — and therefore
``to_bytes()`` — byte-for-byte equal to a serial build.

The pool is a set of long-lived processes reused across builds (the
test suite under ``REPRO_BUILD_WORKERS=2`` rebuilds thousands of tiny
indexes); each build re-initializes them with its graph.  Worker death
is surfaced as :class:`~repro.errors.WorkerCrashError` (exit code) and
in-worker exceptions as :class:`~repro.errors.BuildError` carrying the
worker's traceback — never silently swallowed.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import threading
from dataclasses import dataclass, field

from repro.build.waves import WavePlan, plan_waves
from repro.build.worker import (
    HubDelta,
    check_kind,
    hub_bfs,
    tables_to_rpls,
    worker_main,
)
from repro.errors import ConfigurationError, BuildError, WorkerCrashError
from repro.labeling.labelstore import UNREACHED

__all__ = [
    "ENV_WORKERS",
    "BuildStats",
    "build_label_tables",
    "resolve_workers",
    "shutdown_pool",
]

#: Environment variable consulted when ``workers`` is not given
#: explicitly — lets CI run the whole suite over the parallel path.
ENV_WORKERS = "REPRO_BUILD_WORKERS"

Entry = tuple[int, int, int, bool]


def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count: the explicit argument, else
    ``$REPRO_BUILD_WORKERS``, else 1 (serial).

    Inside a daemonic process the answer is always 1: daemonic
    processes cannot have children, so the pool is unreachable there —
    e.g. a cluster replica whose forkserver-inherited environment still
    carries ``REPRO_BUILD_WORKERS`` from the parent that first started
    the forkserver.  The serial path is bit-identical by contract.
    """
    if multiprocessing.current_process().daemon:
        return 1
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if not raw:
            return 1
        try:
            workers = int(raw)
        except ValueError:
            raise BuildError(
                f"{ENV_WORKERS} must be an integer, got {raw!r}"
            ) from None
    if workers < 1:
        raise ConfigurationError(f"worker count must be positive, got {workers}")
    return workers


@dataclass
class BuildStats:
    """Instrumentation for one parallel build."""

    kind: str = "csc"
    workers: int = 1
    n: int = 0
    #: hubs run serially on the master (the wave plan's prefix)
    serial_hubs: int = 0
    #: hubs dispatched to the pool
    parallel_hubs: int = 0
    waves: int = 0
    #: BFS sides whose speculative result was discarded and re-run
    #: serially because an in-wave canonical write hit their read set
    conflicts: int = 0
    #: total RPLS prefix bytes shipped to workers (all broadcasts)
    broadcast_bytes: int = 0
    #: label entries in the finished tables (both sides)
    entries: int = 0
    details: dict = field(default_factory=dict)

    @property
    def conflict_fraction(self) -> float:
        """Redone sides / parallel BFS sides (2 per parallel hub)."""
        sides = 2 * self.parallel_hubs
        return self.conflicts / sides if sides else 0.0


# ---------------------------------------------------------------------------
# Worker pool (long-lived, reused across builds)
# ---------------------------------------------------------------------------


def _context():
    # forkserver: workers are forked from a clean server process, so
    # creating them is cheap *and* safe in a threaded master (the serve
    # engine's writer thread may trigger a rebuild-fallback build).
    # Its worker bootstrap re-imports __main__ when that module has a
    # file; an interactive parent ("<stdin>", a REPL) has none that
    # exists on disk, so there plain fork is the only context whose
    # workers can start at all.
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


class BuildPool:
    """A fixed-size set of build worker processes."""

    def __init__(self, size: int) -> None:
        ctx = _context()
        self.size = size
        self._conns = []
        self._procs = []
        for i in range(size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=worker_main,
                args=(child,),
                name=f"repro-build-worker-{i}",
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self._procs)

    def broadcast(self, msg: tuple) -> None:
        for i in range(self.size):
            self._send(i, msg)

    def _send(self, i: int, msg: tuple) -> None:
        try:
            self._conns[i].send(msg)
        except (BrokenPipeError, OSError):
            raise self._crash(i) from None

    def _recv(self, i: int):
        try:
            reply = self._conns[i].recv()
        except (EOFError, OSError):
            raise self._crash(i) from None
        if reply[0] == "error":
            raise BuildError(
                f"build worker {i} failed:\n{reply[1]}"
            )
        return reply

    def _crash(self, i: int) -> WorkerCrashError:
        proc = self._procs[i]
        proc.join(timeout=5)
        return WorkerCrashError(
            f"build worker {i} (pid {proc.pid}) died unexpectedly "
            f"(exit code {proc.exitcode})"
        )

    def init_build(self, graph, pos: list[int], kind: str) -> None:
        self.broadcast(("init", graph, pos, kind))
        for i in range(self.size):
            # Drain until the init ack: discards any reply stranded on
            # the pipe by a build that was interrupted mid-wave.
            while self._recv(i)[0] != "ready":
                pass

    def run_wave(
        self, chunks: list[list[tuple[int, int]]]
    ) -> dict[int, HubDelta]:
        """Dispatch per-worker ``(rank, hub)`` chunks; collect all
        speculative results keyed by rank."""
        busy = []
        for i, chunk in enumerate(chunks):
            if chunk:
                self._send(i, ("run", chunk))
                busy.append(i)
        results: dict[int, HubDelta] = {}
        for i in busy:
            reply = self._recv(i)
            for ph, delta in reply[1]:
                results[ph] = delta
        return results

    def run_repairs(
        self, chunks: list[list[tuple[bool, int, int]]]
    ) -> dict[tuple[int, bool], tuple[list[Entry], list[int]]]:
        """Dispatch per-worker ``(forward, rank, hub)`` repair chunks;
        collect speculative ``(entries, visited)`` keyed by
        ``(rank, forward)``."""
        busy = []
        for i, chunk in enumerate(chunks):
            if chunk:
                self._send(i, ("repair", chunk))
                busy.append(i)
        results: dict[tuple[int, bool], tuple[list[Entry], list[int]]] = {}
        for i in busy:
            reply = self._recv(i)
            for ph, forward, entries, visited in reply[1]:
                results[(ph, forward)] = (entries, visited)
        return results

    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("quit",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)


_POOL: BuildPool | None = None
#: Serializes every use of the shared pool: two builds interleaving
#: init/extend/run messages on the same pipes would consume each
#: other's replies.  Concurrent callers are real — the serve engine's
#: writer thread can hit a rebuild fallback while the main thread
#: builds — and a pooled build is CPU-bound anyway, so they queue.
_POOL_LOCK = threading.RLock()


def _get_pool(workers: int) -> BuildPool:
    """The shared pool, (re)created when the size changes or a worker
    has died (call with :data:`_POOL_LOCK` held)."""
    global _POOL
    if _POOL is not None and (_POOL.size != workers or not _POOL.alive()):
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = BuildPool(workers)
    return _POOL


def shutdown_pool() -> None:
    """Tear down the shared worker pool (atexit hook; also useful for
    tests that need a cold start)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# The build loop
# ---------------------------------------------------------------------------


def _commit(
    tables: list[list[Entry]],
    delta: list[list[Entry]],
    canon_written: set[int],
    ph: int,
    entries: list[Entry],
) -> None:
    """Append one hub side's entries (rank order keeps lists sorted),
    mirror them into the pending broadcast delta, and track this wave's
    canonical writes for the conflict check."""
    for w, d, c, f in entries:
        tables[w].append((ph, d, c, f))
        delta[w].append((ph, d, c, f))
        if f:
            canon_written.add(w)


def _chunk(items: list, parts: int) -> list[list]:
    """Split into ``parts`` contiguous chunks, sizes as even as
    possible (rank-contiguous shares keep per-worker label locality)."""
    base, extra = divmod(len(items), parts)
    chunks = []
    at = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(items[at:at + size])
        at += size
    return chunks


def build_label_tables(
    graph,
    order: list[int],
    pos: list[int],
    kind: str,
    workers: int,
    serial_prefix: int | None = None,
    wave_base: int | None = None,
    wave_max: int | None = None,
) -> tuple[list[list[Entry]], list[list[Entry]], BuildStats]:
    """Construct ``(label_in, label_out)`` for ``graph`` under ``order``
    with a pool of ``workers`` processes.

    The schedule is a rank-order prefix run on the master followed by
    speculative waves on the pool (module docstring); one worker makes
    the prefix the whole build, with no pool and no broadcast.  Every
    schedule runs the one kernel :func:`~repro.build.worker.hub_bfs` and
    yields the same tables.
    """
    csc = check_kind(kind)
    n = graph.n
    plan: WavePlan = plan_waves(n, workers, serial_prefix, wave_base,
                                wave_max)
    if workers == 1:
        plan = WavePlan(n=n, serial_prefix=n, waves=[])
    stats = BuildStats(
        kind=kind,
        workers=workers,
        n=n,
        serial_hubs=plan.serial_prefix,
        parallel_hubs=plan.parallel_hubs(),
        waves=len(plan.waves),
    )
    label_in: list[list[Entry]] = [[] for _ in range(n)]
    label_out: list[list[Entry]] = [[] for _ in range(n)]
    dist = [UNREACHED] * n
    cnt = [0] * n

    # The prefix commits straight into the tables: at its end they are
    # exactly the first wave's broadcast, so no delta copy is kept.
    for p in range(plan.serial_prefix):
        h = order[p]
        hub_bfs(graph, h, p, pos, label_in, label_out, dist, cnt, csc,
                True, commit=True)
        hub_bfs(graph, h, p, pos, label_in, label_out, dist, cnt, csc,
                False, commit=True)

    if plan.waves:
        # One pooled build at a time: interleaved pipe traffic from a
        # second thread would consume this build's replies.
        with _POOL_LOCK:
            pool = _get_pool(workers)
            pool.init_build(graph, pos, kind)
            delta_in, delta_out = label_in, label_out
            for start, end in plan.waves:
                blob_in = tables_to_rpls(delta_in)
                blob_out = tables_to_rpls(delta_out)
                stats.broadcast_bytes += (
                    (len(blob_in) + len(blob_out)) * pool.size
                )
                pool.broadcast(("extend", blob_in, blob_out))
                delta_in = [[] for _ in range(n)]
                delta_out = [[] for _ in range(n)]
                hubs = [(p, order[p]) for p in range(start, end)]
                results = pool.run_wave(_chunk(hubs, pool.size))
                canon_in: set[int] = set()
                canon_out: set[int] = set()
                for p, h in hubs:
                    fwd_e, bwd_e = results[p]
                    # Decide both sides against the wave's commits
                    # *before* this hub's own (see module docstring: a
                    # hub's forward writes are invisible to its
                    # backward pass).
                    fwd_ok = h not in canon_out
                    bwd_ok = h not in canon_in
                    if not fwd_ok:
                        stats.conflicts += 1
                        fwd_e, _ = hub_bfs(graph, h, p, pos, label_in,
                                           label_out, dist, cnt, csc, True)
                    _commit(label_in, delta_in, canon_in, p, fwd_e)
                    if not bwd_ok:
                        stats.conflicts += 1
                        bwd_e, _ = hub_bfs(graph, h, p, pos, label_in,
                                           label_out, dist, cnt, csc,
                                           False)
                    _commit(label_out, delta_out, canon_out, p, bwd_e)

    stats.entries = (
        sum(len(es) for es in label_in)
        + sum(len(es) for es in label_out)
    )
    return label_in, label_out, stats
