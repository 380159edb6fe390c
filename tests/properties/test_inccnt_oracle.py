"""Differential tests of the INCCNT kernel against a frozen oracle.

The live resumed BFS (:func:`repro.core.maintenance._resume_bfs`)
prunes its seed vertex through a C-level key intersection, derives the
hub-side lists only once the BFS expands past the seed, and computes
the canonical-flag distance only for entries it writes.  None of that
may change what it writes: after every insert, the index bytes and the
:class:`~repro.core.maintenance.UpdateStats` work counters must equal
those of the kernel frozen in ``inccnt_oracle.py``, for both index
kinds and both strategies.  The live side also takes a store snapshot
before each insert, so the copy-on-write path runs under the kernel,
and that snapshot must keep its bytes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.csc import CSCIndex
from repro.core.maintenance import STRATEGIES, insert_edge
from repro.labeling.hpspc import HPSPCIndex
from tests.conftest import digraphs
from tests.properties.inccnt_oracle import oracle_insert_edge
from tests.test_large_counts import diamond_chain

KINDS = {"csc": CSCIndex, "hpspc": HPSPCIndex}

COUNTERS = (
    "hubs_processed", "repair_bfs_count", "vertices_visited",
    "entries_added", "entries_updated", "entries_removed",
)


@st.composite
def graphs_with_inserts(draw, max_n: int = 9, max_inserts: int = 10):
    """A digraph plus a sequence of distinct absent edges to insert."""
    g = draw(digraphs(max_n=max_n))
    absent = [
        (a, b)
        for a in range(g.n)
        for b in range(g.n)
        if a != b and not g.has_edge(a, b)
    ]
    if not absent:
        return g, []
    inserts = draw(
        st.lists(st.sampled_from(absent), unique=True,
                 max_size=min(max_inserts, len(absent)))
    )
    return g, inserts


def _state(index) -> bytes:
    return (index.to_bytes() + index.store_in.to_bytes()
            + index.store_out.to_bytes())


def _replay_against_oracle(kind, g, inserts, strategy) -> None:
    live = KINDS[kind].build(g.copy())
    oracle = KINDS[kind].build(g.copy())
    assert _state(live) == _state(oracle)
    for a, b in inserts:
        before = (live.store_in.snapshot(), live.store_out.snapshot())
        frozen = [s.to_bytes() for s in before]
        got = insert_edge(live, a, b, strategy)
        want = oracle_insert_edge(oracle, a, b, strategy)
        assert _state(live) == _state(oracle), (a, b)
        for name in COUNTERS:
            assert getattr(got, name) == getattr(want, name), (name, a, b)
        assert [s.to_bytes() for s in before] == frozen


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(case=graphs_with_inserts())
def test_inccnt_matches_oracle(case, kind, strategy):
    g, inserts = case
    _replay_against_oracle(kind, g, inserts, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_saturated_diamond_chain_matches_oracle(kind, strategy):
    """The closed 26-diamond chain holds 2**26 shortest cycles, past the
    24-bit packed count field.  Two arms are removed before the build
    (2**24 cycles, already saturated) and re-inserted one by one, which
    rewrites saturated counts through the overflow table; a chord that
    skips four diamonds then shortens every cycle."""
    k = 26
    g, s, t = diamond_chain(k)
    g.add_edge(t, s)
    arms = [(3 * (k - 1), 3 * (k - 1) + 2), (0, 2)]
    for a, b in arms:
        g.remove_edge(a, b)
    _replay_against_oracle(kind, g, [*arms, (15, 27)], strategy)


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(deadline=None)  # example budget comes from the active profile
@given(case=graphs_with_inserts(max_n=14, max_inserts=24))
def test_inccnt_matches_oracle_deep(case, kind, strategy):
    """Nightly-profile variant: bigger graphs, longer insert streams."""
    g, inserts = case
    _replay_against_oracle(kind, g, inserts, strategy)
