"""In-memory spans recorded around calls into each layer's public
functions, from outside the program.

:class:`Tracer` replaces a fixed set of methods on their classes with
wrappers that record ``(name, start, end, parent, round, thread)`` and
restores the originals on :meth:`Tracer.remove`.  The parent of a span
is the innermost traced call still open on the same thread; a span with
no such parent belongs to the round that was current when it started
(the writer thread's spans included).  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in ``Tracer.spans``, or ``None``
    parent: int | None
    #: round id current at start (``None`` outside the measured rounds)
    round: int | None
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets():
    """``(owner class, attribute, span name)`` for every traced call;
    the span name starts with the layer.  Imported lazily: the tracer
    itself needs no repro."""
    from repro.cluster.client import ReplicaClient
    from repro.cluster.router import ClusterRouter
    from repro.core.counter import ShortestCycleCounter
    from repro.core.csc import CSCIndex
    from repro.persist.checkpoint import CheckpointStore
    from repro.persist.manager import DurabilityManager
    from repro.service.engine import ServeEngine
    from repro.service.snapshot import Snapshot

    return [
        (CSCIndex, "build", "csc.build"),
        (ShortestCycleCounter, "apply_batch", "batch.apply"),
        (Snapshot, "capture", "service.publish"),
        (Snapshot, "sccnt_many", "bulk.sccnt_many"),
        (DurabilityManager, "log_batch", "persist.wal_append"),
        (DurabilityManager, "bootstrap", "persist.checkpoint"),
        (DurabilityManager, "note_applied", "persist.note_applied"),
        (CheckpointStore, "materialize", "persist.materialize"),
        (ServeEngine, "submit", "service.submit"),
        (ReplicaClient, "sccnt", "cluster.rpc_sccnt"),
        (ReplicaClient, "status", "cluster.rpc_status"),
        (ClusterRouter, "sccnt", "cluster.route_sccnt"),
    ]


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: set by the driver at each round boundary
        self.round: int | None = None
        self._local = threading.local()
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, func, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            idx = len(tracer.spans)
            span = Span(
                name, time.perf_counter(), 0.0, parent, tracer.round,
                threading.current_thread().name,
            )
            tracer.spans.append(span)
            stack.append(idx)
            try:
                return func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------------
    def named(self, name: str, rounds=None) -> list[Span]:
        """Closed spans called ``name`` (optionally only in ``rounds``)."""
        return [
            s for s in self.spans
            if s.name == name and s.end
            and (rounds is None or s.round in rounds)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "round": s.round,
                    "thread": s.thread,
                }) + "\n")
