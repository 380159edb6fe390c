"""The two workloads' inputs, generated from the seed alone.

Each workload runs on one fixed dataset graph, the way the paper's
experiments run on fixed datasets; the seed draws everything that
happens on it: the update stream, the queried accounts and the
watchlist.  Drawing the graph from the seed as well made the ten-seed
spread of the metrics mostly a spread of graphs, not of the system:
across five churn seeds peak memory alone varied by 8% and the batch
cost by 30%.

``screen`` (reads): a wiki-talk-style communication graph in which about
60% of accounts lie on a shortest cycle, so queries run the label join.
Each round inserts 8 new messages (the cheap INCCNT path), then reads.
It is the control for maintenance and recovery changes.  A message goes
from a uniformly random account to one that has written to no one yet
(6% of accounts, as on wiki-talk where most messages welcome newcomers),
so it never closes a cycle: the cycle structure the queries read, and
the cost of the next insert, stay the same through the run (label
entries grow 4% over 120 rounds).  Uniformly random messages grew the
label entries by 33-39% over 120 rounds and the per-batch apply median
from 13 to 22 ms, by an amount that depended on the seed.

``churn`` (writes): a transaction network with a planted laundering cell
under sliding-window expiry.  Every round adds 8 transactions and
expires the 8 oldest of the window as one batch.  The transactions are
drawn among the accounts of the network's largest strongly connected
group (the laundering cell excluded), so every expiry removes an edge
that shortest paths from most hubs cross: each batch runs deletion
discovery and then takes the rebuild fallback, on the primary, on the
replica and again in restart replay.  Confining the stream there is what
keeps the batches alike.  Uniformly random transactions split batches
between repair and rebuild in a seed-dependent ratio (8 to 16 rebuilds
in 20 batches across three seeds), which moves every median with the
seed.  The network is sized (1000 accounts, 4500 transactions) so that
the group is large and stable (548-602 accounts on generator seeds
1-6), where the 2000/8000 network has one on only one seed in eight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.graph.datasets import DATASETS
from repro.graph.digraph import DiGraph
from repro.workloads.fraud import make_transaction_network

Op = tuple[str, int, int]


@dataclass(frozen=True)
class Shape:
    """Per-workload sizes (``tiny`` shrinks them for the smoke test)."""

    inserts: int
    expiries: int
    routed: int
    local: int
    watchlist: int
    #: rounds per second of ``--seconds``: on the 2-vCPU benchmark host
    #: the rounds take about ``--seconds``, and every run does the same
    #: work however fast the host is at the time
    rounds_per_s: float
    #: timed restarts; ``restart_s`` is their median (one for churn,
    #: whose replay of every batch takes 15-20 s)
    restarts: int


SHAPES = {
    "screen": Shape(8, 0, 300, 3000, 1000, 7.5, 5),
    "churn": Shape(8, 8, 100, 1000, 1000, 1.0, 1),
}

#: churn: transactions in the window before the first round
_WINDOW_ROUNDS = 4
#: generator seed of both dataset graphs
DATASET_SEED = 1


@dataclass
class Inputs:
    name: str
    graph: DiGraph
    shape: Shape
    rounds: list[list[Op]]
    watchlist: list[int]
    seed: int
    #: churn only: the planted hub and its ring count (SCCnt(hub) == rings)
    hub: int | None = None
    rings: int | None = None

    def queries(self, r: int) -> tuple[list[int], list[int]]:
        """``(routed, local)`` accounts for round ``r``, uniform random."""
        rng = random.Random(self.seed * 1_000_003 + r)
        n = self.graph.n
        return (
            [rng.randrange(n) for _ in range(self.shape.routed)],
            [rng.randrange(n) for _ in range(self.shape.local)],
        )


def _largest_scc(graph: DiGraph) -> list[int]:
    """Members of the largest strongly connected component (Kosaraju,
    iterative)."""
    n = graph.n
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(graph.out_neighbors(root)))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(graph.out_neighbors(w))))
                    break
            else:
                stack.pop()
                order.append(v)
    comp = [-1] * n
    best: list[int] = []
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        comp[root] = root
        members = [root]
        todo = [root]
        while todo:
            v = todo.pop()
            for w in graph.in_neighbors(v):
                if comp[w] < 0:
                    comp[w] = root
                    members.append(w)
                    todo.append(w)
        if len(members) > len(best):
            best = members
    return best


def _rounds_for(shape: Shape, seconds: float, tiny: bool) -> int:
    return 3 if tiny else max(4, round(seconds * shape.rounds_per_s))


def make_screen(seed: int, seconds: float, tiny: bool = False) -> Inputs:
    shape = SHAPES["screen"]
    n, m = (300, 630) if tiny else (5000, 10500)
    graph = DATASETS["WKT"].builder(n, m, DATASET_SEED)
    rng = random.Random(seed)
    present = set(graph.edges())
    silent = [v for v in range(n) if graph.out_degree(v) == 0]
    rounds = []
    for _ in range(_rounds_for(shape, seconds, tiny)):
        ops = []
        while len(ops) < shape.inserts:
            a, b = rng.randrange(n), rng.choice(silent)
            if a != b and (a, b) not in present:
                present.add((a, b))
                ops.append(("insert", a, b))
        rounds.append(ops)
    watch = rng.sample(range(n), min(shape.watchlist, n))
    return Inputs("screen", graph, shape, rounds, watch, seed)


def make_churn(seed: int, seconds: float, tiny: bool = False) -> Inputs:
    shape = SHAPES["churn"]
    n, m, rings = (200, 900, 5) if tiny else (1000, 4500, 30)
    scenario = make_transaction_network(n=n, m=m, rings=rings,
                                        seed=DATASET_SEED)
    graph = scenario.graph
    cell = scenario.ring_members
    core = sorted(v for v in _largest_scc(graph) if v not in cell)
    if len(core) < 8:
        raise RuntimeError(
            f"churn: strongly connected group of {len(core)} "
            "accounts is too small for the transaction stream"
        )
    rng = random.Random(seed)
    present = set(graph.edges())

    def transaction() -> tuple[int, int]:
        while True:
            a, b = rng.choice(core), rng.choice(core)
            if a != b and (a, b) not in present and (b, a) not in present:
                present.add((a, b))
                return a, b

    window = []
    for _ in range(_WINDOW_ROUNDS * shape.expiries):
        edge = transaction()
        graph.add_edge(*edge)
        window.append(edge)
    rounds = []
    for _ in range(_rounds_for(shape, seconds, tiny)):
        ops = []
        for _ in range(shape.inserts):
            edge = transaction()
            window.append(edge)
            ops.append(("insert", *edge))
        for _ in range(shape.expiries):
            edge = window.pop(0)
            present.discard(edge)
            ops.append(("delete", *edge))
        rounds.append(ops)
    watch = rng.sample(range(n), min(shape.watchlist, n))
    return Inputs(
        "churn", graph, shape, rounds, watch, seed,
        hub=scenario.hub, rings=rings,
    )


MAKERS = {"screen": make_screen, "churn": make_churn}
