"""The construction BFS and the build-worker process entry point.

:func:`hub_bfs` is the one pruned counting BFS of the repository: both
sides of one hub, for both index kinds (CSC over the implicit ``Gb``,
HP-SPC over ``G``).  It runs against the tuple-list tables as they
stand and returns the ``(vertex, dist, count, flag)`` records the hub
appends, in append (BFS-dequeue) order, together with the list of
vertices the BFS dequeued.  The dequeued list *is* the side's label
read set — every pruning query probes exactly the dequeued vertex's
labels — which is what the repair committer
(:mod:`repro.core.parallel_repair`) intersects against committed
changes to decide whether a speculative repair is still valid.

Every pruning decision the BFS takes joins ``hub_dist`` — the
*canonical* hub-side entries of the hub vertex, whose ranks all lie
strictly above the wave — against the labels of the dequeued vertex.
In-wave label writes carry in-wave hub ranks, so they can never match a
``hub_dist`` key; the one way an in-wave write can change the BFS is by
landing a canonical entry on the hub vertex's *hub side* and thereby
extending ``hub_dist`` itself.  That is the committer's entire conflict
condition (see :mod:`repro.build.parallel` for the full argument).

The kernel serves every schedule: the master's rank-order prefix (the
whole build when there is one worker), pool workers (against their
broadcast prefix copy), the master's conflict redo (against the
authoritative tables), and the pool side of parallel deletion repair.
Its output is pinned by the Table II/III goldens and the cross-checks
against the naive DFS and BFS-CYCLE oracles;
``tests/properties/test_parallel_build_differential.py`` pins the
speculative waves plus conflict redo against the straight rank-order
schedule, and ``tests/properties/test_parallel_repair_differential.py``
pins the pool repairs against :func:`repro.core.maintenance._repair_hub`,
which runs the same BFS over the packed stores' hub maps.

A worker process (:func:`worker_main`) speaks a tiny pickled-tuple
protocol over its pipe:

==========  ============================================  =============
message     payload                                       reply
==========  ============================================  =============
``init``    ``(graph, pos, kind)``                        —
``extend``  ``(rpls_in, rpls_out)`` packed label bytes    —
``run``     ``[(rank, hub_vertex), ...]``                 ``result``
``repair``  ``[(forward, rank, hub_vertex), ...]``        ``result``
``quit``    —                                             —
``_test``   ``"exit"`` / ``"raise"`` (crash injection)    —
==========  ============================================  =============

``run`` serves the builder (both sides per hub, visited lists
dropped); ``repair`` serves BATCH-DECCNT (one side per task, visited
lists shipped back for the committer's conflict check).

Any exception is shipped back as ``("error", traceback)`` before the
worker exits; a vanished worker is detected by the master as an
``EOFError`` on the pipe and surfaced as
:class:`~repro.errors.WorkerCrashError`.
"""

from __future__ import annotations

import os
import traceback
from collections import deque

from repro.labeling.labelstore import UNREACHED, LabelStore

from repro.errors import ConfigurationError

__all__ = [
    "HubDelta",
    "check_kind",
    "hub_bfs",
    "tables_to_rpls",
    "extend_tables_from_rpls",
    "worker_main",
]

Entry = tuple[int, int, int, bool]
#: (fwd_entries, bwd_entries) — the hub's appends per BFS side
HubDelta = tuple[list[Entry], list[Entry]]


# ---------------------------------------------------------------------------
# The construction BFS
# ---------------------------------------------------------------------------

def check_kind(kind: str) -> bool:
    """Validate an index kind; returns whether it is CSC."""
    if kind not in ("csc", "hpspc"):
        raise ConfigurationError(
            f"unknown index kind {kind!r}; expected one of "
            "['csc', 'hpspc']"
        )
    return kind == "csc"


def hub_bfs(graph, h, ph, pos, label_in, label_out, dist, cnt, csc,
            forward, commit=False):
    """One pruned counting BFS of hub ``h`` (rank ``ph``) against the
    tables as they stand — Algorithm 3's per-hub loop.

    ``forward`` generates in-labels (pruning joins the hub's ``Lout``
    against the dequeued vertex's ``Lin``), the backward side the
    mirror image.  ``csc`` selects the CSC index over the implicit
    ``Gb``: levels advance by 2 (couple edge plus one original edge),
    the forward ``hub_dist`` is the couple-shifted ``Lout(h_out)``, and
    the backward BFS starts from ``h``'s in-neighbours' ``out`` sides
    at distance 1 and stops at ``h``'s own couple after recording the
    cycle entry (Section IV-C rule (4)).  HP-SPC is the plain BFS on
    ``G``.  Every other seed is ``h`` itself at distance 0, so the one
    rank test ``pos[u] >= ph`` never re-admits it.

    ``dist``/``cnt`` are ``UNREACHED``/0 scratch arrays, restored
    before returning ``(entries, visited)``.  With ``commit`` the
    entries go straight into the target table instead and ``entries``
    comes back empty: a vertex's labels are read only when it is
    dequeued, before its own append, and rank-``ph`` entries stop every
    pruning scan.  The rank-order prefix commits this way; returning
    the entries and appending them afterwards measured 8–14% slower on
    the perfbench graphs.
    """
    if forward:
        hub_side, target = label_out[h], label_in
        neighbors = graph.out_neighbors
        shift = 1 if csc else 0
    else:
        hub_side, target = label_in[h], label_out
        neighbors = graph.in_neighbors
        shift = 0
    # Canonical distances from/to the hub via strictly higher hubs.
    hub_dist: dict[int, int] = {}
    for q, d, _c, canonical in hub_side:
        if q >= ph:
            break
        if canonical:
            hub_dist[q] = d + shift
    if csc and not forward:
        stop = h
        visited = [u for u in neighbors(h) if pos[u] >= ph]
        for u in visited:
            dist[u] = 1
            cnt[u] = 1
    else:
        stop = -1
        visited = [h]
        dist[h] = 0
        cnt[h] = 1
    step = 2 if csc else 1
    queue: deque[int] = deque(visited)
    entries: list[Entry] = []
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        # Pruning query (Algorithm 3 line 13): canonical entries of
        # strictly higher-ranked hubs only.
        d_via = UNREACHED
        for q, dq, _cq, canonical in target[w]:
            if q >= ph:
                break
            if canonical:
                hd = hub_dist.get(q)
                if hd is not None and hd + dq < d_via:
                    d_via = hd + dq
        if d_via < d_w:
            continue
        if commit:
            target[w].append((ph, d_w, cnt[w], d_via > d_w))
        else:
            entries.append((w, d_w, cnt[w], d_via > d_w))
        if w == stop:
            continue  # couple-cycle: cycle entry recorded, prune
        d_next = d_w + step
        c_w = cnt[w]
        for u in neighbors(w):
            if dist[u] == UNREACHED:
                if pos[u] >= ph:
                    dist[u] = d_next
                    cnt[u] = c_w
                    queue.append(u)
                    visited.append(u)
            elif dist[u] == d_next:
                cnt[u] += c_w
    for w in visited:
        dist[w] = UNREACHED
        cnt[w] = 0
    return entries, visited


# ---------------------------------------------------------------------------
# RPLS hand-off helpers
# ---------------------------------------------------------------------------


def tables_to_rpls(tables: list[list[Entry]]) -> bytes:
    """Pack a (possibly sparse) list-of-tuple-lists table into ``RPLS``
    bytes — the same container :meth:`LabelStore.to_bytes` writes, so
    the hand-off rides PR 2's one-memcpy-per-vertex serialization."""
    store = LabelStore(len(tables))
    for v, entries in enumerate(tables):
        if entries:
            store.replace_vertex(v, entries)
    return store.to_bytes()


def extend_tables_from_rpls(blob: bytes, tables: list[list[Entry]]) -> int:
    """Append a broadcast ``RPLS`` delta onto local tuple-list tables;
    returns the number of entries appended.  Waves are committed in
    rank order, so appending keeps every per-vertex list sorted by hub
    rank."""
    store = LabelStore.from_bytes(blob)
    if len(store) != len(tables):
        raise ConfigurationError(
            f"prefix delta has {len(store)} vertices, tables have "
            f"{len(tables)}"
        )
    added = 0
    packed = store.packed
    for v in range(len(tables)):
        if packed[v]:
            entries = store.entries(v)
            tables[v].extend(entries)
            added += len(entries)
    return added


# ---------------------------------------------------------------------------
# Worker process entry point
# ---------------------------------------------------------------------------


def worker_main(conn) -> None:
    """Run one build worker until ``quit`` or pipe closure.

    Spawn-safe: everything the worker needs arrives through ``conn``.
    """
    graph = None
    pos: list[int] = []
    csc = True
    label_in: list[list[Entry]] = []
    label_out: list[list[Entry]] = []
    dist: list[int] = []
    cnt: list[int] = []
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return  # master went away; nothing left to report to
            tag = msg[0]
            if tag == "init":
                graph, pos, kind = msg[1], msg[2], msg[3]
                csc = check_kind(kind)
                n = graph.n
                label_in = [[] for _ in range(n)]
                label_out = [[] for _ in range(n)]
                dist = [UNREACHED] * n
                cnt = [0] * n
                # The ack doubles as a pipe resync point: the master
                # drains everything up to it, so a reply stranded by an
                # interrupted earlier build cannot desync this one.
                conn.send(("ready",))
            elif tag == "extend":
                extend_tables_from_rpls(msg[1], label_in)
                extend_tables_from_rpls(msg[2], label_out)
            elif tag == "run":
                results: list[tuple[int, HubDelta]] = []
                for ph, h in msg[1]:
                    fwd, _ = hub_bfs(graph, h, ph, pos, label_in,
                                     label_out, dist, cnt, csc, True)
                    bwd, _ = hub_bfs(graph, h, ph, pos, label_in,
                                     label_out, dist, cnt, csc, False)
                    results.append((ph, (fwd, bwd)))
                conn.send(("result", results))
            elif tag == "repair":
                repairs: list[tuple[int, bool, list[Entry], list[int]]] = []
                for forward, ph, h in msg[1]:
                    entries, visited = hub_bfs(
                        graph, h, ph, pos, label_in, label_out, dist, cnt,
                        csc, forward,
                    )
                    repairs.append((ph, forward, entries, visited))
                conn.send(("result", repairs))
            elif tag == "quit":
                return
            elif tag == "_test":
                # Crash injection for the worker-failure tests: "exit"
                # simulates a hard death (no goodbye on the pipe),
                # "raise" an internal worker bug.
                if msg[1] == "exit":
                    os._exit(3)
                raise RuntimeError("injected worker failure")
            else:
                raise ConfigurationError(f"unknown build-worker message {tag!r}")
    except BaseException:  # noqa: BLE001 - shipped to the master
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
