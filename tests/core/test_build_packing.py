"""Construction packs its labels in one pass, with the cyclic GC paused.

:func:`repro.build.build_label_tables` hands the BFS's flat entry lists
to :meth:`LabelStore.from_flat`, which builds the packed words and the
``_maps`` query accelerator, in ``(dist, hub)`` order, for both index
kinds.  The maps must equal, order included, what a store loaded from
the same bytes builds lazily.  The byte layout itself is pinned by
``test_build_digest.py``.
"""

import gc

import pytest

import repro.build as build
from repro.build import paused_gc
from repro.core.csc import CSCIndex
from repro.errors import PackingOverflowError
from repro.graph.datasets import DATASETS
from repro.graph.digraph import DiGraph
from repro.labeling.hpspc import HPSPCIndex
from repro.labeling.labelstore import COUNT_SATURATED, LabelStore
from repro.labeling.packing import DISTANCE_BITS, VERTEX_BITS
from repro.workloads.fraud import make_transaction_network
from tests.properties.invariants import assert_maps_match_packed


def closed_diamond_chain(k: int) -> DiGraph:
    """``k`` diamonds in series closed into a cycle: ``2**k`` shortest
    cycles through vertex 0, so counts past the 24-bit field."""
    g = DiGraph(3 * k + 1)
    for i in range(k):
        base = 3 * i
        for mid in (base + 1, base + 2):
            g.add_edge(base, mid)
            g.add_edge(mid, base + 3)
    g.add_edge(3 * k, 0)
    return g


GRAPHS = {
    "wkt": lambda: DATASETS["WKT"].builder(300, 630, 1),
    "fraud": lambda: make_transaction_network(
        n=200, m=900, rings=5, seed=1
    ).graph,
    "saturated": lambda: closed_diamond_chain(26),
}


def _set_gc(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def restore_gc():
    was = gc.isenabled()
    yield
    _set_gc(was)


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return request.param, GRAPHS[request.param]()


class TestEagerAccelerators:
    @pytest.mark.parametrize("kind", [CSCIndex, HPSPCIndex],
                             ids=["csc", "hpspc"])
    def test_match_a_lazy_reload(self, graph, kind):
        name, g = graph
        index = kind.build(g)
        for store in (index.store_in, index.store_out):
            eager_maps = store._maps
            assert eager_maps is not None
            lazy = LabelStore.from_bytes(store.to_bytes())
            assert lazy._maps is None  # nothing built until asked
            lazy_maps = lazy.ensure_maps()
            assert ([list(m.items()) for m in eager_maps]
                    == [list(m.items()) for m in lazy_maps])
            assert_maps_match_packed(store)
            assert store.to_lists() == lazy.to_lists()

    @pytest.mark.parametrize("kind", [CSCIndex, HPSPCIndex],
                             ids=["csc", "hpspc"])
    def test_equal_tuples_are_one_object(self, graph, kind):
        """One object per distinct accelerator tuple and store: the
        post-pause young collection scans that many, not one per
        entry."""
        _, g = graph
        index = kind.build(g)
        for store in (index.store_in, index.store_out):
            values = [v for m in store._maps for v in m.values()]
            assert len({id(t) for t in values}) == len(set(values))

    def test_saturated_counts_stay_exact(self):
        index = CSCIndex.build(GRAPHS["saturated"]())
        overflow = [b for b in index.store_in.big + index.store_out.big
                    if b]
        assert overflow
        assert max(c for b in overflow for c in b.values()) == 2**26
        assert index.sccnt(0).count == 2**26
        for store in (index.store_in, index.store_out):
            for v, b in enumerate(store.big):
                for hub, count in (b or {}).items():
                    assert count >= COUNT_SATURATED
                    assert store._maps[v][hub][1] == count


def flat(tables):
    return [[x for entry in entries for x in entry] for entries in tables]


def pack(tables, via_lists):
    """Pack a tuple table through either construction entry point."""
    if via_lists:
        return LabelStore.from_lists(tables)
    return LabelStore.from_flat(flat(tables))


class TestFromFlat:
    def test_dist_views_match_the_lazy_ones(self):
        """The maps packing sorts by distance equal, order included, the
        ones a loaded store builds from its words."""
        tables = [
            [(0, 0, 1, True), (2, 3, 5, False), (7, 4, 1 << 30, True)],
            [],
            [(h, h % 5, h + 1, h % 3 == 0) for h in range(20)],
        ]
        store = LabelStore.from_flat(flat(tables))
        ref = LabelStore.from_bytes(store.to_bytes())
        assert store.to_bytes() == LabelStore.from_lists(tables).to_bytes()
        assert store.big == [{7: 1 << 30}, None, None]
        assert ([list(m.items()) for m in store._maps]
                == [list(m.items()) for m in ref.ensure_maps()])
        assert list(store._maps[2])[:5] == [0, 5, 10, 15, 1]
        assert_maps_match_packed(store)

    @pytest.mark.parametrize("via_lists", [False, True])
    def test_vertex_overflow_raises(self, via_lists):
        table = [[(1 << VERTEX_BITS, 0, 1, True)]]
        with pytest.raises(PackingOverflowError):
            pack(table, via_lists)

    @pytest.mark.parametrize("via_lists", [False, True])
    def test_distance_overflow_raises(self, via_lists):
        table = [[(0, 1 << DISTANCE_BITS, 1, True)]]
        with pytest.raises(PackingOverflowError):
            pack(table, via_lists)

    def test_overflow_past_the_first_entry_raises(self):
        entries = [(0, 1, 1, True), (1, 1 << DISTANCE_BITS, 1, False)]
        with pytest.raises(PackingOverflowError):
            LabelStore.from_lists([entries])

    def test_negative_count_saturates_as_pack_entry_does(self):
        store = LabelStore.from_lists([[(3, 2, -1, False)]])
        assert store.packed[0][0] & COUNT_SATURATED == COUNT_SATURATED
        assert store.big == [None]


class TestPausedGc:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("kind", [CSCIndex, HPSPCIndex],
                             ids=["csc", "hpspc"])
    def test_build_restores_gc_state(self, restore_gc, kind, enabled):
        _set_gc(enabled)
        kind.build(GRAPHS["fraud"]())
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_build_restores_gc_state_when_it_raises(
        self, restore_gc, monkeypatch, enabled
    ):
        seen = []

        def broken(*args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(build, "hub_bfs", broken)
        _set_gc(enabled)
        with pytest.raises(RuntimeError, match="boom"):
            CSCIndex.build(GRAPHS["fraud"]())
        assert seen == [False]
        assert gc.isenabled() is enabled

    def test_build_packs_with_gc_paused(self, restore_gc, monkeypatch):
        seen = []
        from_flat = LabelStore.from_flat.__func__

        def spy(cls, flats):
            seen.append(gc.isenabled())
            return from_flat(cls, flats)

        monkeypatch.setattr(LabelStore, "from_flat", classmethod(spy))
        gc.enable()
        CSCIndex.build(GRAPHS["fraud"]())
        HPSPCIndex.build(GRAPHS["fraud"]())
        assert seen == [False] * 4
        assert gc.isenabled()

    def test_overlapping_pauses_end_enabled(self, restore_gc):
        """Two threads' pauses interleaved as enter A, enter B, exit A,
        exit B (or exit B first) end with the GC enabled."""
        for exit_order in ("ab", "ba"):
            gc.enable()
            pauses = {"a": paused_gc(), "b": paused_gc()}
            pauses["a"].__enter__()
            pauses["b"].__enter__()
            assert not gc.isenabled()
            for name in exit_order:
                pauses[name].__exit__(None, None, None)
            assert gc.isenabled()
