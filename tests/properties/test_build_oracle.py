"""Differential tests of the construction kernel against a frozen oracle.

The live :func:`repro.build.hub_bfs` runs level by level and, at level
``d``, joins only the hub's canonical entries that can still reach
``d``; CSC's couple shift is folded into that bound instead of copying
the hub's map.  None of that may change what it writes: the flat
per-vertex tables and the packed index bytes must equal those of the
kernel frozen in ``build_oracle.py``, for both index kinds, under the
degree order and under arbitrary orders.  The generated graphs mix in
2-cycles (CSC's couple-cycle stop), isolated vertices and long cycles
with chords, where a hub's canonical map reaches past the level the BFS
is on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.build import hub_bfs
from repro.core.csc import CSCIndex
from repro.graph.digraph import DiGraph
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.labelstore import LabelStore
from repro.labeling.ordering import degree_order, positions
from tests.conftest import digraphs
from tests.properties.build_oracle import oracle_flat_tables
from tests.test_large_counts import diamond_chain

KINDS = {"csc": CSCIndex, "hpspc": HPSPCIndex}


@st.composite
def build_cases(draw, max_n: int = 10):
    """A digraph with extra 2-cycles, a cycle through a prefix of its
    vertices and trailing isolated vertices, plus a hub order: the
    degree order or a drawn permutation."""
    g = draw(digraphs(max_n=max_n))
    n = g.n
    isolated = draw(st.integers(min_value=0, max_value=2))
    edges = list(g.edges())
    if n > 1:
        for a, b in draw(st.lists(st.sampled_from(edges), max_size=4)
                         if edges else st.just([])):
            edges.append((b, a))  # close a 2-cycle
        ring = draw(st.integers(min_value=0, max_value=n))
        if ring > 2:
            edges += [(i, (i + 1) % ring) for i in range(ring)]
    graph = DiGraph.from_edges_dedup(n + isolated, edges)
    if draw(st.booleans()):
        order = degree_order(graph)
    else:
        order = draw(st.permutations(range(graph.n)))
    return graph, list(order)


def _assert_matches_oracle(graph, order) -> None:
    pos = positions(order)
    for name, kind in KINDS.items():
        csc = kind is CSCIndex
        want_in, want_out = oracle_flat_tables(graph, order, pos, csc)
        got_in, got_out = oracle_flat_tables(graph, order, pos, csc,
                                             kernel=hub_bfs)
        assert got_in == want_in, name
        assert got_out == want_out, name
        want = kind(graph, order, pos, LabelStore.from_flat(want_in, csc),
                    LabelStore.from_flat(want_out, csc))
        assert kind.build(graph, order).to_bytes() == want.to_bytes(), name


@settings(max_examples=150, deadline=None)
@given(case=build_cases())
def test_build_matches_oracle(case):
    _assert_matches_oracle(*case)


@pytest.mark.parametrize("k", [3, 8, 17])
def test_chorded_ring_matches_oracle(k):
    """A directed ring with forward chords: every hub's canonical map
    reaches many levels past the first, so the distance bound admits
    hub entries one level at a time."""
    n = 3 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, (i + 3) % n) for i in range(0, n, 4)]
    edges += [((i + 1) % n, i) for i in range(0, n, 5)]  # 2-cycles
    graph = DiGraph.from_edges_dedup(n + 1, edges)  # plus an isolated one
    _assert_matches_oracle(graph, degree_order(graph))
    _assert_matches_oracle(graph, list(range(graph.n)))


def test_saturated_diamond_chain_matches_oracle():
    """The closed 26-diamond chain holds 2**26 shortest cycles, past the
    24-bit packed count field, so every count the build packs for the
    cycle saturates into the overflow table."""
    k = 26
    g, s, t = diamond_chain(k)
    g.add_edge(t, s)
    _assert_matches_oracle(g, degree_order(g))


@pytest.mark.slow
@settings(deadline=None)  # example budget comes from the active profile
@given(case=build_cases(max_n=24))
def test_build_matches_oracle_deep(case):
    """Nightly-profile variant: bigger graphs."""
    _assert_matches_oracle(*case)
