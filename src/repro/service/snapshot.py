"""Immutable, epoch-stamped query snapshots (the reader side).

A :class:`Snapshot` is what the serving engine publishes after each
update batch and what every reader thread queries.  It captures the
counter's label state through :meth:`CSCIndex.snapshot` (copy-on-write,
O(n) pointers) plus the scalar graph facts queries need (``n``, ``m``),
so it keeps answering from the captured state no matter how far the
live counter advances — and it never reads the live graph, which is the
property that makes it safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.errors import VertexError
from repro.types import CycleCount, PathCount, top_by_cycles

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.counter import ShortestCycleCounter
    from repro.core.csc import CSCIndex

__all__ = ["Snapshot"]


class Snapshot:
    """A frozen view of a :class:`ShortestCycleCounter` at one instant.

    Attributes
    ----------
    epoch:
        Publication sequence number (0 = the state at engine start; each
        applied batch publishes the next epoch).
    ops_applied:
        Total update ops consumed from the queue up to this snapshot.
    n, m:
        Vertex and edge counts of the graph at capture time.
    """

    __slots__ = ("index", "epoch", "ops_applied", "n", "m")

    def __init__(
        self,
        index: CSCIndex,
        n: int,
        m: int,
        epoch: int = 0,
        ops_applied: int = 0,
    ) -> None:
        self.index = index
        self.n = n
        self.m = m
        self.epoch = epoch
        self.ops_applied = ops_applied

    @classmethod
    def capture(
        cls,
        counter: ShortestCycleCounter,
        epoch: int = 0,
        ops_applied: int = 0,
    ) -> Snapshot:
        """Snapshot ``counter``'s current state (single-writer thread
        only; see :meth:`CSCIndex.snapshot`)."""
        graph = counter.graph
        return cls(
            counter.index.snapshot(), graph.n, graph.m, epoch, ops_applied
        )

    # ------------------------------------------------------------------
    # Queries (same semantics as the live counter, at the captured state)
    # ------------------------------------------------------------------
    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexError(v, self.n)

    def count(self, v: int) -> CycleCount:
        """``SCCnt(v)`` at the captured state."""
        self._check(v)
        return self.index.sccnt(v)

    def count_many(self, vertices: Sequence[int]) -> list[CycleCount]:
        """Batch form of :meth:`count` (each distinct id answered once;
        raises :class:`~repro.errors.BatchVertexError` — a
        :class:`VertexError` — naming every out-of-range id)."""
        return self.index.sccnt_many(vertices)

    #: :class:`~repro.service.QueryAPI` spellings (true aliases — no
    #: extra call frame on the hot read path)
    sccnt = count
    sccnt_many = count_many

    def spcnt(self, x: int, y: int) -> PathCount:
        """``SPCnt(x, y)`` at the captured state."""
        self._check(x)
        self._check(y)
        return self.index.spcnt(x, y)

    def spcnt_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[PathCount]:
        """Batch form of :meth:`spcnt` (same contract as
        :meth:`count_many`)."""
        return self.index.spcnt_many(pairs)

    def top_suspicious(self, k: int = 10) -> list[tuple[int, CycleCount]]:
        """The ``k`` most-cycled vertices at the captured state (same
        tie-breaking as :meth:`ShortestCycleCounter.top_suspicious`)."""
        sccnt = self.index.sccnt
        return top_by_cycles([(v, sccnt(v)) for v in range(self.n)], k)

    def __repr__(self) -> str:
        return (
            f"Snapshot(epoch={self.epoch}, ops_applied={self.ops_applied}, "
            f"n={self.n}, m={self.m})"
        )
