"""Build-worker kernels and the worker process entry point.

The kernels are *delta* variants of the construction BFSes in
:mod:`repro.core.csc` / :mod:`repro.labeling.hpspc`: instead of
appending into the label tables they run against a **frozen** table
state and return the ``(vertex, dist, count, flag)`` records the hub
would append, in append (BFS-dequeue) order, together with the list of
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

The same kernels serve three callers: pool workers (against their
broadcast prefix copy), the master's serial prefix, and the master's
conflict redo (against the authoritative, fully committed tables) — one
code path, one behavior.

They deliberately *mirror* (rather than share) the in-place serial
kernels in :mod:`repro.core.csc` / :mod:`repro.labeling.hpspc`: the
serial builders are the independent reference the bit-identity
differential suite pins this module against, and folding the two into
one implementation would make that comparison vacuous while slowing the
serial path (the common case) with a commit indirection.  A change to
either copy must keep
``tests/properties/test_parallel_build_differential.py`` green — that
suite is what keeps the pair in lockstep.

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
    "SIDE_KERNELS",
    "csc_hub_delta",
    "hpspc_hub_delta",
    "kernel_for",
    "side_kernels",
    "tables_to_rpls",
    "extend_tables_from_rpls",
    "worker_main",
]

Entry = tuple[int, int, int, bool]
#: (fwd_entries, bwd_entries) — the hub's appends per BFS side
HubDelta = tuple[list[Entry], list[Entry]]


# ---------------------------------------------------------------------------
# Delta BFS kernels
# ---------------------------------------------------------------------------


def _csc_forward_delta(graph, h, ph, pos, label_in, label_out, dist, cnt):
    """Delta variant of :func:`repro.core.csc._forward_bfs` (in-label
    generation for hub ``h_in``; levels advance by 2 in ``Gb`` units)."""
    hub_dist: dict[int, int] = {}
    for q, d, _c, canonical in label_out[h]:
        if q >= ph:
            break
        if canonical:
            hub_dist[q] = d + 1
    out_neighbors = graph.out_neighbors

    dist[h] = 0
    cnt[h] = 1
    queue: deque[int] = deque((h,))
    visited = [h]
    entries: list[tuple[int, int, int, bool]] = []
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        d_via = UNREACHED
        for q, dq, _cq, canonical in label_in[w]:
            if q >= ph:
                break
            if canonical:
                hd = hub_dist.get(q)
                if hd is not None and hd + dq < d_via:
                    d_via = hd + dq
        if d_via < d_w:
            continue
        entries.append((w, d_w, cnt[w], d_via > d_w))
        d_next = d_w + 2
        c_w = cnt[w]
        for u in out_neighbors(w):
            if dist[u] == UNREACHED:
                if pos[u] > ph:
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


def _csc_backward_delta(graph, h, ph, pos, label_in, label_out, dist, cnt):
    """Delta variant of :func:`repro.core.csc._backward_bfs` (out-label
    generation; dequeuing the hub's own couple records the cycle entry
    and prunes)."""
    hub_dist: dict[int, int] = {}
    for q, d, _c, canonical in label_in[h]:
        if q >= ph:
            break
        if canonical:
            hub_dist[q] = d
    in_neighbors = graph.in_neighbors

    queue: deque[int] = deque()
    visited: list[int] = []
    entries: list[tuple[int, int, int, bool]] = []
    for u in in_neighbors(h):
        if pos[u] >= ph:
            dist[u] = 1
            cnt[u] = 1
            queue.append(u)
            visited.append(u)
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        d_via = UNREACHED
        for q, dq, _cq, canonical in label_out[w]:
            if q >= ph:
                break
            if canonical:
                hd = hub_dist.get(q)
                if hd is not None and dq + hd < d_via:
                    d_via = dq + hd
        if d_via < d_w:
            continue
        entries.append((w, d_w, cnt[w], d_via > d_w))
        if w == h:
            continue  # couple-cycle: cycle entry recorded, prune
        d_next = d_w + 2
        c_w = cnt[w]
        for u in in_neighbors(w):
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


def csc_hub_delta(graph, h, ph, pos, label_in, label_out, dist, cnt):
    """Both construction BFSes of CSC hub ``h`` (rank ``ph``) against a
    frozen table state."""
    fwd, _ = _csc_forward_delta(
        graph, h, ph, pos, label_in, label_out, dist, cnt
    )
    bwd, _ = _csc_backward_delta(
        graph, h, ph, pos, label_in, label_out, dist, cnt
    )
    return (fwd, bwd)


def _hpspc_delta(
    graph, v, p, pos, hub_side_labels, target_labels, dist, cnt, forward
):
    """Delta variant of
    :func:`repro.labeling.hpspc._pruned_counting_bfs`."""
    hub_dist: dict[int, int] = {}
    for q, dq, _cq, canonical in hub_side_labels:
        if q >= p:
            break
        if canonical:
            hub_dist[q] = dq
    neighbors = graph.out_neighbors if forward else graph.in_neighbors

    dist[v] = 0
    cnt[v] = 1
    queue: deque[int] = deque((v,))
    visited = [v]
    entries: list[tuple[int, int, int, bool]] = []
    while queue:
        w = queue.popleft()
        d_w = dist[w]
        d_via = UNREACHED
        for q, dq, _cq, canonical in target_labels[w]:
            if q >= p:
                break
            if canonical:
                hd = hub_dist.get(q)
                if hd is not None and hd + dq < d_via:
                    d_via = hd + dq
        if d_via < d_w:
            continue
        entries.append((w, d_w, cnt[w], d_via > d_w))
        d_next = d_w + 1
        c_w = cnt[w]
        for u in neighbors(w):
            if dist[u] == UNREACHED:
                if pos[u] > p:
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


def hpspc_forward_delta(graph, h, ph, pos, label_in, label_out, dist, cnt):
    """HP-SPC in-label generation for hub ``h`` (hub side ``Lout(h)``)."""
    return _hpspc_delta(
        graph, h, ph, pos, label_out[h], label_in, dist, cnt, forward=True
    )


def hpspc_backward_delta(graph, h, ph, pos, label_in, label_out, dist, cnt):
    """HP-SPC out-label generation for hub ``h`` (hub side ``Lin(h)``)."""
    return _hpspc_delta(
        graph, h, ph, pos, label_in[h], label_out, dist, cnt, forward=False
    )


def hpspc_hub_delta(graph, h, ph, pos, label_in, label_out, dist, cnt):
    """Both pruned counting BFSes of HP-SPC hub ``h`` (rank ``ph``)."""
    fwd, _ = hpspc_forward_delta(
        graph, h, ph, pos, label_in, label_out, dist, cnt
    )
    bwd, _ = hpspc_backward_delta(
        graph, h, ph, pos, label_in, label_out, dist, cnt
    )
    return (fwd, bwd)


#: kind -> (forward side kernel, backward side kernel); the forward side
#: writes in-labels and reads (in-labels @ visited, out-labels @ hub),
#: the backward side the mirror image — for both index kinds.
SIDE_KERNELS = {
    "csc": (_csc_forward_delta, _csc_backward_delta),
    "hpspc": (hpspc_forward_delta, hpspc_backward_delta),
}

_KERNELS = {"csc": csc_hub_delta, "hpspc": hpspc_hub_delta}


def kernel_for(kind: str):
    """The per-hub delta kernel for an index kind."""
    try:
        return _KERNELS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown index kind {kind!r}; expected one of "
            f"{sorted(_KERNELS)}"
        ) from None


def side_kernels(kind: str):
    """The (forward, backward) side kernels for an index kind."""
    kernel_for(kind)  # validate the kind
    return SIDE_KERNELS[kind]


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
    kernel = None
    fwd_kernel = bwd_kernel = None
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
                kernel = kernel_for(kind)
                fwd_kernel, bwd_kernel = side_kernels(kind)
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
                    delta = kernel(
                        graph, h, ph, pos, label_in, label_out, dist, cnt
                    )
                    results.append((ph, delta))
                conn.send(("result", results))
            elif tag == "repair":
                repairs: list[tuple[int, bool, list[Entry], list[int]]] = []
                for forward, ph, h in msg[1]:
                    k = fwd_kernel if forward else bwd_kernel
                    entries, visited = k(
                        graph, h, ph, pos, label_in, label_out, dist, cnt
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
