"""Stateful property test for the batched maintenance engine.

A sibling of ``test_stateful.py`` at the facade level: one
:class:`ShortestCycleCounter` lives through an arbitrary interleaving of
single-edge updates, mixed batches (across all rebuild-threshold
regimes), queries, and full rebuilds — always agreeing with the *naive*
enumeration baseline, which shares no code with the BFS- or label-based
implementations.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.baselines.naive import naive_cycle_count
from repro.core.counter import ShortestCycleCounter
from repro.graph.digraph import DiGraph
from tests.properties.invariants import assert_maps_match_packed

N = 6  # naive enumeration is exponential; keep the state space tiny


class BatchedCounterMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**20))
    def setup(self, seed):
        rng = random.Random(seed)
        g = DiGraph(N)
        for _ in range(rng.randrange(0, 2 * N)):
            a, b = rng.randrange(N), rng.randrange(N)
            if a != b and not g.has_edge(a, b):
                g.add_edge(a, b)
        self.counter = ShortestCycleCounter.build(g)

    # -- single-edge updates (the per-edge baseline path) ---------------
    @rule(a=st.integers(0, N - 1), b=st.integers(0, N - 1))
    def insert_one(self, a, b):
        if a == b or self.counter.graph.has_edge(a, b):
            return
        self.counter.insert_edge(a, b)

    @precondition(lambda self: self.counter.graph.m > 0)
    @rule(pick=st.integers(0, 10_000))
    def delete_one(self, pick):
        edges = list(self.counter.graph.edges())
        self.counter.delete_edge(*edges[pick % len(edges)])

    # -- mixed batches across all engine regimes ------------------------
    @rule(
        seed=st.integers(0, 2**20),
        size=st.integers(1, 8),
        threshold=st.sampled_from([-1.0, 0.3, 1.0]),
    )
    def apply_mixed_batch(self, seed, size, threshold):
        rng = random.Random(seed)
        g = self.counter.graph
        sim = g.copy()
        ops = []
        for _ in range(size):
            present = list(sim.edges())
            absent = [
                (a, b)
                for a in range(N)
                for b in range(N)
                if a != b and not sim.has_edge(a, b)
            ]
            if present and (not absent or rng.random() < 0.5):
                e = rng.choice(present)
                sim.remove_edge(*e)
                ops.append(("delete", *e))
            elif absent:
                e = rng.choice(absent)
                sim.add_edge(*e)
                ops.append(("insert", *e))
        stats = self.counter.apply_batch(ops, rebuild_threshold=threshold)
        assert stats.submitted == len(ops)
        assert self.counter.graph == sim

    @rule()
    def rebuild(self):
        self.counter.rebuild()

    @rule(v=st.integers(0, N - 1))
    def query_one(self, v):
        assert self.counter.count(v) == naive_cycle_count(
            self.counter.graph, v
        )

    @invariant()
    def all_queries_match_naive(self):
        g = self.counter.graph
        for v in g.vertices():
            assert self.counter.count(v) == naive_cycle_count(g, v)

    @invariant()
    def maps_match_packed(self):
        index = self.counter.index
        assert_maps_match_packed(index.store_in)
        assert_maps_match_packed(index.store_out)


TestBatchedCounterMachine = BatchedCounterMachine.TestCase
TestBatchedCounterMachine.settings = settings(
    max_examples=25, stateful_step_count=10, deadline=None
)
