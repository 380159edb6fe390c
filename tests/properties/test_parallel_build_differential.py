"""Differential properties: parallel build vs the serial schedule.

The wave-sharded multi-process builder (:mod:`repro.build`) promises
**bit-identity** — ``to_bytes()`` equality, which pins entries, order,
canonical flags, and exact overflow counts — with the straight
rank-order schedule (``workers=1``) for any worker count.  Both run the
one construction kernel, so this suite pins the schedule (speculative
waves plus conflict redo); the kernel itself is pinned by the Table
II/III goldens and the cross-validation against the naive DFS and
BFS-CYCLE oracles.  These properties check that promise where it is
hardest:

* adversarial wave plans (a drawn serial prefix from none to all hubs,
  waves of 2–3 hubs) so most hubs run speculatively and the intra-wave
  conflict machinery carries the correctness weight, and the first
  broadcast — the prefix tables themselves — covers its empty and
  full edges;
* couple-heavy graphs (every edge likely reciprocated), maximizing
  couple-cycle entries and length-2 interactions;
* custom vertex orderings (identity, reversed, drawn permutations), not
  just the degree order;
* both index kinds (CSC and HP-SPC).

The worker pool is shared across examples, so each example costs one
wave round-trip, not a process spawn.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.build import build_label_tables
from repro.core.csc import CSCIndex
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.ordering import positions
from tests.conftest import digraphs


@st.composite
def couple_heavy_digraphs(draw, max_n: int = 10):
    """A digraph where most edges come with their reverse — stresses
    the couple-cycle pruning rule of the CSC backward BFS."""
    from repro.graph.digraph import DiGraph

    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(a, b) for a in range(n) for b in range(n) if a < b]
    pairs = draw(
        st.lists(
            st.sampled_from(possible),
            unique=True,
            max_size=min(len(possible), 3 * n),
        )
    )
    g = DiGraph(n)
    for a, b in pairs:
        g.add_edge(a, b)
        if draw(st.booleans()) or draw(st.booleans()):  # ~75% reciprocal
            g.add_edge(b, a)
    return g


@st.composite
def orderings(draw, n: int):
    """Identity, reversed, or a drawn permutation of ``0..n-1``."""
    kind = draw(st.sampled_from(["identity", "reversed", "permutation"]))
    if kind == "identity":
        return list(range(n))
    if kind == "reversed":
        return list(range(n - 1, -1, -1))
    return draw(st.permutations(range(n)))


def _assert_parallel_matches_serial(data, graph, order, kind, workers):
    serial_cls = CSCIndex if kind == "csc" else HPSPCIndex
    serial = serial_cls.build(graph, order, workers=1)
    # Adversarial plan: tiny waves after a drawn prefix — the first
    # broadcast is the prefix tables themselves, empty when the prefix
    # is, and with the whole order as prefix no wave runs at all.
    prefix = data.draw(st.integers(0, graph.n), label="serial_prefix")
    label_in, label_out, stats = build_label_tables(
        graph, list(order), positions(list(order)), kind,
        workers=workers, serial_prefix=prefix, wave_base=2, wave_max=3,
    )
    par = serial_cls(
        graph, list(order), positions(list(order)), label_in, label_out
    )
    assert par.to_bytes() == serial.to_bytes()
    assert stats.serial_hubs == prefix
    assert stats.parallel_hubs == graph.n - prefix
    # And through the public entry point with the default plan.
    public = serial_cls.build(graph, order, workers=workers)
    assert public.to_bytes() == serial.to_bytes()


# The first example after a pool (re)size pays the worker spawn; the
# local default profile's 200ms deadline would flag that as flaky.
_NO_DEADLINE = settings(deadline=None)


class TestCSCBitIdentity:
    @_NO_DEADLINE
    @given(data=st.data())
    def test_random_graphs_and_orders_two_workers(self, data):
        g = data.draw(digraphs(max_n=10))
        order = data.draw(orderings(g.n))
        _assert_parallel_matches_serial(data, g, order, "csc", workers=2)

    @_NO_DEADLINE
    @given(data=st.data())
    def test_couple_heavy_graphs_two_workers(self, data):
        g = data.draw(couple_heavy_digraphs())
        order = data.draw(orderings(g.n))
        _assert_parallel_matches_serial(data, g, order, "csc", workers=2)


class TestHPSPCBitIdentity:
    @_NO_DEADLINE
    @given(data=st.data())
    def test_random_graphs_and_orders_two_workers(self, data):
        g = data.draw(digraphs(max_n=10))
        order = data.draw(orderings(g.n))
        _assert_parallel_matches_serial(data, g, order, "hpspc", workers=2)


class TestFourWorkers:
    """Worker-count independence: 4-way splits cover uneven chunking
    (empty chunks, single-hub chunks) and deeper in-wave rank gaps.
    Grouped so the shared pool is resized once, not per example."""

    @_NO_DEADLINE
    @given(data=st.data())
    def test_csc_random_graphs_four_workers(self, data):
        g = data.draw(digraphs(max_n=12))
        order = data.draw(orderings(g.n))
        _assert_parallel_matches_serial(data, g, order, "csc", workers=4)

    @_NO_DEADLINE
    @given(data=st.data())
    def test_couple_heavy_four_workers(self, data):
        g = data.draw(couple_heavy_digraphs(max_n=8))
        order = data.draw(orderings(g.n))
        _assert_parallel_matches_serial(data, g, order, "hpspc", workers=4)


@pytest.mark.slow
class TestDeepBitIdentity:
    """Nightly-budget variant on larger graphs (the default profile
    keeps it to a handful of examples)."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_csc_larger_graphs(self, data):
        g = data.draw(digraphs(max_n=30, max_edge_factor=4))
        order = data.draw(orderings(g.n))
        _assert_parallel_matches_serial(data, g, order, "csc", workers=3)
