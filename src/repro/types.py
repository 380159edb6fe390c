"""Shared lightweight result types."""

from __future__ import annotations

from typing import NamedTuple


class CycleCount(NamedTuple):
    """Result of an ``SCCnt`` query.

    ``count`` is the number of shortest cycles through the query vertex and
    ``length`` their common length in the original graph; a vertex on no
    cycle reports ``count == 0`` and ``length == inf`` (mirroring
    Algorithm 1's ``(∞, 0)`` return).
    """

    count: int
    length: float

    @property
    def has_cycle(self) -> bool:
        """Whether any cycle passes through the queried vertex."""
        return self.count > 0


#: The "no cycle through this vertex" result.
NO_CYCLE = CycleCount(0, float("inf"))


def top_by_cycles(
    scored: list[tuple[int, CycleCount]], k: int
) -> list[tuple[int, CycleCount]]:
    """The ``k`` most-cycled of ``(vertex, SCCnt)`` pairs: most shortest
    cycles first, ties broken by shorter cycle length, then by id (the
    paper's fraud pre-screening order, Application 1).  Sorts
    ``scored`` in place."""
    scored.sort(key=lambda item: (-item[1].count, item[1].length, item[0]))
    return scored[:k]


class PathCount(NamedTuple):
    """Result of an ``SPCnt`` pair query (:meth:`CSCIndex.spcnt`).

    ``count`` is the number of shortest ``x -> y`` paths in the original
    graph and ``dist`` their common length in original-graph hops; an
    unreachable target reports ``count == 0`` and ``dist == inf``.
    """

    count: int
    dist: float

    @property
    def reachable(self) -> bool:
        """Whether any ``x -> y`` path exists."""
        return self.count > 0


#: The "target unreachable" result.
NO_PATH = PathCount(0, float("inf"))
