"""Unit tests for the packed flat-array label store and its facades."""

import pytest

from repro.errors import (
    FrozenSnapshotError,
    PackingOverflowError,
    SerializationError,
)
from repro.labeling.labelstore import (
    COUNT_SATURATED,
    HUB_SHIFT,
    LabelStore,
    LabelTable,
    LabelView,
    join_min_count,
    join_min_dist,
    UNREACHED,
)
from repro.labeling.packing import COUNT_BITS, DISTANCE_BITS, VERTEX_BITS
from tests.properties.invariants import assert_maps_match_packed


SAMPLE = [
    [(0, 0, 1, True), (2, 3, 2, False), (5, 7, 4, True)],
    [],
    [(1, 2, 9, True)],
]


def make_store():
    return LabelStore.from_lists(SAMPLE)


class TestRoundTrip:
    def test_lists_round_trip(self):
        store = make_store()
        assert store.to_lists() == SAMPLE

    def test_bytes_round_trip(self):
        store = make_store()
        again = LabelStore.from_bytes(store.to_bytes())
        assert again.to_lists() == SAMPLE
        assert store.eq_entries(again)

    def test_rpls_roundtrip_preserves_store(self):
        from repro.core.csc import CSCIndex
        from tests.conftest import random_digraph

        g = random_digraph(20, 70, seed=2)
        index = CSCIndex.build(g)
        clone = LabelStore.from_bytes(index.store_in.to_bytes())
        assert clone.to_lists() == index.store_in.to_lists()
        assert [clone.vertex_to_bytes(v) for v in range(g.n)] == [
            index.store_in.vertex_to_bytes(v) for v in range(g.n)
        ]

    def test_bytes_round_trip_empty(self):
        store = LabelStore.from_lists([])
        assert LabelStore.from_bytes(store.to_bytes()).to_lists() == []

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError):
            LabelStore.from_bytes(b"NOPE" + b"\x00" * 16)

    def test_truncation_rejected(self):
        blob = make_store().to_bytes()
        with pytest.raises(SerializationError):
            LabelStore.from_bytes(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = make_store().to_bytes()
        with pytest.raises(SerializationError):
            LabelStore.from_bytes(blob + b"x")

    def test_oversized_count_rejected(self):
        store = LabelStore.from_lists([[(0, 1, 1 << 64, True)]])
        with pytest.raises(SerializationError):
            store.to_bytes()


class TestPackedLayout:
    def test_word_layout_matches_paper(self):
        store = LabelStore.from_lists([[(3, 5, 7, True)]])
        word = store.packed[0][0]
        assert word >> HUB_SHIFT == 3
        assert (word >> COUNT_BITS) & ((1 << DISTANCE_BITS) - 1) == 5
        assert word & ((1 << COUNT_BITS) - 1) == 7

    def test_words_sorted_by_hub_field(self):
        store = make_store()
        arr = store.packed[0]
        assert list(arr) == sorted(arr)

    def test_vertex_overflow_raises(self):
        with pytest.raises(PackingOverflowError):
            LabelStore.from_lists([[(1 << VERTEX_BITS, 0, 1, True)]])

    def test_distance_overflow_raises(self):
        with pytest.raises(PackingOverflowError):
            LabelStore.from_lists([[(0, 1 << DISTANCE_BITS, 1, True)]])

    def test_saturating_count_stays_exact(self):
        big = (1 << 30) + 17
        store = LabelStore.from_lists([[(4, 2, big, True)]])
        # the packed word is clamped, the decoded entry is exact
        assert store.packed[0][0] & ((1 << COUNT_BITS) - 1) == COUNT_SATURATED
        assert store.entries(0) == [(4, 2, big, True)]
        assert store.ensure_maps()[0][4] == (2, big, True)
        # ... and survives serialization
        again = LabelStore.from_bytes(store.to_bytes())
        assert again.entries(0) == [(4, 2, big, True)]

    def test_count_exactly_at_saturation_boundary(self):
        boundary = COUNT_SATURATED
        store = LabelStore.from_lists([[(0, 1, boundary, False)]])
        assert store.entries(0) == [(0, 1, boundary, False)]
        again = LabelStore.from_bytes(store.to_bytes())
        assert again.entries(0) == [(0, 1, boundary, False)]


class TestMutation:
    def test_insert_sorted_keeps_order_and_flags(self):
        store = make_store()
        store.insert_sorted(0, 3, 1, 1, True)
        assert [e[0] for e in store.entries(0)] == [0, 2, 3, 5]
        assert store.entries(0)[2] == (3, 1, 1, True)
        # canonical bitset shifted, not clobbered
        assert [e[3] for e in store.entries(0)] == [True, False, True, True]

    def test_set_at_updates_map(self):
        store = make_store()
        store.set_at(0, 1, 2, 4, 6, True)
        assert store.entries(0)[1] == (2, 4, 6, True)
        assert store.ensure_maps()[0][2] == (4, 6, True)

    def test_delete_at_shifts_bitset(self):
        store = make_store()
        store.delete_at(0, 0)
        assert store.entries(0) == [(2, 3, 2, False), (5, 7, 4, True)]
        assert store.hub_index(0, 0) == -1
        assert 0 not in store.ensure_maps()[0]

    def test_hub_index_bisects_packed_words(self):
        store = make_store()
        assert store.hub_index(0, 2) == 1
        assert store.hub_index(0, 4) == -1
        assert store.hub_index(1, 0) == -1

    def test_add_vertex(self):
        store = make_store()
        v = store.add_vertex([(0, 1, 1, True)])
        assert v == 3
        assert store.entries(3) == [(0, 1, 1, True)]

    def test_copy_is_independent(self):
        store = make_store()
        clone = store.copy()
        clone.set_at(0, 0, 0, 9, 9, False)
        assert store.entries(0) == SAMPLE[0]
        assert clone.entries(0) != SAMPLE[0]


class TestJoinKernels:
    def test_join_min_count_matches_merge_semantics(self):
        ma = {0: (1, 2, True), 3: (4, 1, False)}
        mb = {0: (2, 5, True), 3: (0, 7, True), 9: (0, 1, True)}
        # hub 0: 1+2=3 count 10; hub 3: 4+0=4 -> min is 3
        assert join_min_count(ma, mb) == (3, 10)
        assert join_min_dist(ma, mb) == 3

    def test_join_accumulates_ties(self):
        ma = {0: (1, 2, True), 1: (2, 3, True)}
        mb = {0: (2, 5, True), 1: (1, 4, True)}
        # both hubs give distance 3 -> counts accumulate
        assert join_min_count(ma, mb) == (3, 2 * 5 + 3 * 4)

    def test_disjoint_maps_unreached(self):
        assert join_min_count({0: (1, 1, True)}, {1: (1, 1, True)}) == (
            UNREACHED, 0,
        )

    def test_bydist_join_matches_map_join(self):
        """The early-exit join over distance-ordered maps equals a join
        over every common hub."""
        ma = {0: (1, 2, True), 1: (2, 3, True), 7: (9, 1, False)}
        mb = {7: (0, 2, True), 1: (1, 4, True), 0: (2, 5, True)}
        sums = {h: (ma[h][0] + mb[h][0], ma[h][1] * mb[h][1]) for h in ma}
        best = min(d for d, _ in sums.values())
        want = (best, sum(c for d, c in sums.values() if d == best))
        assert join_min_count(ma, mb) == join_min_count(mb, ma) == want
        assert join_min_dist(ma, mb) == join_min_dist(mb, ma) == best

    def test_bydist_join_early_exit_keeps_ties(self):
        # two entries at the tie distance, then a far entry past the
        # cutoff; the scan stops there without dropping either tie
        ma = {0: (1, 2, True), 1: (1, 3, True), 2: (50, 1, True)}
        mb = {2: (0, 1000, True), 0: (2, 5, True), 1: (2, 4, True)}
        assert join_min_count(ma, mb) == (3, 2 * 5 + 3 * 4)
        assert join_min_dist(ma, mb) == 3


#: One vertex whose hub order and ``(dist, hub)`` order differ, with
#: distance ties: its map iterates hubs 4, 1, 6, 0, 3, 8.
RICH = [[(0, 2, 1, True), (1, 1, 2, False), (3, 2, 3, True),
         (4, 0, 4, True), (6, 1, 5, False), (8, 3, 6, True)]]


def rich_store():
    store = LabelStore.from_lists(RICH)
    assert list(store._maps[0]) == [4, 1, 6, 0, 3, 8]
    return store


class TestDistanceOrder:
    """Every mutator keeps each map equal to its vertex's packed entries
    and iterating in ascending ``(dist, hub)`` order."""

    def check(self, store, hubs):
        assert_maps_match_packed(store)
        assert list(store._maps[0]) == hubs

    def test_set_at_same_distance_keeps_place(self):
        store = rich_store()
        store.set_at(0, 2, 3, 2, 9, False)
        self.check(store, [4, 1, 6, 0, 3, 8])
        assert store._maps[0][3] == (2, 9, False)

    def test_set_at_new_distance_moves(self):
        store = rich_store()
        store.set_at(0, 2, 3, 0, 3, True)  # hub 3: 2 -> 0, ahead of 4
        self.check(store, [3, 4, 1, 6, 0, 8])
        store.set_at(0, 0, 0, 7, 1, True)  # hub 0: 2 -> 7, last
        self.check(store, [3, 4, 1, 6, 8, 0])

    def test_set_at_new_hub_refreshes(self):
        store = rich_store()
        store.set_at(0, 0, 2, 1, 1, True)  # hub 0 becomes hub 2
        self.check(store, [4, 1, 2, 6, 3, 8])

    @pytest.mark.parametrize("hub, dist, hubs", [
        (2, 0, [2, 4, 1, 6, 0, 3, 8]),   # head
        (5, 1, [4, 1, 5, 6, 0, 3, 8]),   # middle, between ties
        (9, 3, [4, 1, 6, 0, 3, 8, 9]),   # tail, after a tie
        (7, 5, [4, 1, 6, 0, 3, 8, 7]),   # tail, farther than all
    ])
    def test_insert_sorted_places(self, hub, dist, hubs):
        store = rich_store()
        store.insert_sorted(0, hub, dist, 1, False)
        self.check(store, hubs)

    def test_insert_sorted_into_empty(self):
        store = LabelStore.from_lists([[]])
        store.insert_sorted(0, 3, 2, 1, True)
        assert_maps_match_packed(store)
        assert store._maps[0] == {3: (2, 1, True)}

    def test_delete_at(self):
        store = rich_store()
        store.delete_at(0, 4)  # hub 6
        self.check(store, [4, 1, 0, 3, 8])

    def test_replace_vertex(self):
        store = rich_store()
        store.replace_vertex(0, [(2, 5, 1, True), (1, 5, 1, False),
                                 (9, 0, 2, True)])
        self.check(store, [9, 1, 2])

    def test_set_vertex_from_bytes(self):
        store = rich_store()
        other = LabelStore.from_lists([[(1, 4, 1, True), (2, 3, 1, True),
                                        (5, 3, 2, False)]])
        blob = other.vertex_to_bytes(0)
        assert store.set_vertex_from_bytes(0, blob) == len(blob)
        self.check(store, [2, 5, 1])

    def test_raw_mutators_refresh(self):
        store = rich_store()
        store.append_raw(0, (9, 0, 1, True))
        self.check(store, [4, 9, 1, 6, 0, 3, 8])
        store.insert_raw(0, 0, (2, 2, 1, False))
        self.check(store, [4, 9, 1, 6, 0, 2, 3, 8])
        store.reverse(0)
        self.check(store, [4, 9, 1, 6, 0, 2, 3, 8])

    def test_add_vertex(self):
        store = rich_store()
        v = store.add_vertex([(5, 2, 1, True), (0, 4, 1, True)])
        assert_maps_match_packed(store)
        assert list(store._maps[v]) == [5, 0]

    def test_lazy_maps_of_a_loaded_store(self):
        store = LabelStore.from_bytes(rich_store().to_bytes())
        assert store._maps is None
        store.ensure_maps()
        self.check(store, [4, 1, 6, 0, 3, 8])

    def test_snapshot_keeps_its_order(self):
        store = rich_store()
        snap = store.snapshot()
        store.set_at(0, 2, 3, 0, 3, True)
        store.insert_sorted(0, 2, 1, 1, False)
        store.delete_at(0, 5)  # hub 6
        self.check(store, [3, 4, 1, 2, 0, 8])
        assert_maps_match_packed(snap)
        assert list(snap._maps[0]) == [4, 1, 6, 0, 3, 8]


def overflow_store():
    """A store exercising the exact-count overflow tables: several
    saturated entries spread over multiple vertices."""
    big1 = COUNT_SATURATED + 5
    big2 = 1 << 40
    big3 = (1 << 63) + 123
    return LabelStore.from_lists([
        [(0, 1, big1, True), (3, 2, 7, False), (9, 4, big2, True)],
        [],
        [(2, 3, big3, False)],
        [(1, 1, 1, True)],
    ])


class TestSerializationRobustness:
    """RPLS container hardening: every malformed byte stream must raise
    SerializationError — never parse silently, never leak another
    exception type."""

    def test_every_truncation_rejected(self):
        blob = overflow_store().to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                LabelStore.from_bytes(blob[:cut])

    def test_corrupted_magic_rejected_at_every_byte(self):
        blob = bytearray(make_store().to_bytes())
        for i in range(4):
            bad = bytearray(blob)
            bad[i] ^= 0xFF
            with pytest.raises(SerializationError):
                LabelStore.from_bytes(bytes(bad))

    def test_corrupted_version_rejected(self):
        blob = bytearray(make_store().to_bytes())
        blob[4] = 0xFE
        with pytest.raises(SerializationError):
            LabelStore.from_bytes(bytes(blob))

    def test_overflow_table_round_trip(self):
        store = overflow_store()
        again = LabelStore.from_bytes(store.to_bytes())
        assert store.eq_entries(again)
        assert again.to_lists() == store.to_lists()
        # the saturated words stay clamped, the decoded counts exact
        assert again.packed[0][0] & ((1 << COUNT_BITS) - 1) == COUNT_SATURATED
        assert again.big[0] == store.big[0]
        assert again.big[2] == store.big[2]
        assert again.big[1] is None or again.big[1] == {}

    def test_prefix_decode_reports_consumed_bytes(self):
        blob = overflow_store().to_bytes()
        trailer = b"TRAILING-DATA"
        store, consumed = LabelStore.from_bytes_prefix(blob + trailer)
        assert consumed == len(blob)
        assert store.eq_entries(overflow_store())


class TestIndexSerializationRobustness:
    """Same hardening for the RPCI container (CSCIndex.to_bytes)."""

    @staticmethod
    def index_and_graph():
        from repro.core.csc import CSCIndex
        from repro.graph.digraph import DiGraph

        g = DiGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                   (4, 2)])
        return CSCIndex.build(g), g

    def test_round_trip(self):
        from repro.core.csc import CSCIndex

        index, g = self.index_and_graph()
        again = CSCIndex.from_bytes(index.to_bytes(), g)
        assert again.order == index.order
        assert again.store_in.eq_entries(index.store_in)
        assert again.store_out.eq_entries(index.store_out)

    def test_every_truncation_rejected(self):
        from repro.core.csc import CSCIndex

        index, g = self.index_and_graph()
        blob = index.to_bytes()
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                CSCIndex.from_bytes(blob[:cut], g)

    def test_corrupted_magic_and_version_rejected(self):
        from repro.core.csc import CSCIndex

        index, g = self.index_and_graph()
        blob = bytearray(index.to_bytes())
        for i in range(4):
            bad = bytearray(blob)
            bad[i] ^= 0xFF
            with pytest.raises(SerializationError):
                CSCIndex.from_bytes(bytes(bad), g)
        bad = bytearray(blob)
        bad[4] = 0x7F
        with pytest.raises(SerializationError):
            CSCIndex.from_bytes(bytes(bad), g)

    def test_graph_size_mismatch_rejected(self):
        from repro.core.csc import CSCIndex
        from repro.graph.digraph import DiGraph

        index, _g = self.index_and_graph()
        with pytest.raises(SerializationError):
            CSCIndex.from_bytes(index.to_bytes(), DiGraph(3))


class TestSnapshotCOW:
    """Copy-on-write snapshots: frozen reads, per-vertex isolation."""

    def test_snapshot_reflects_capture_time_state(self):
        store = make_store()
        snap = store.snapshot()
        assert snap.frozen and not store.frozen
        assert snap.to_lists() == SAMPLE

    def test_every_mutation_isolated_from_snapshot(self):
        mutations = [
            lambda s: s.set_at(0, 1, 2, 9, 9, True),
            lambda s: s.insert_sorted(0, 3, 1, 1, True),
            lambda s: s.delete_at(0, 0),
            lambda s: s.replace_vertex(0, [(7, 7, 7, False)]),
            lambda s: s.append_raw(0, (9, 1, 1, False)),
            lambda s: s.insert_raw(0, 0, (9, 1, 1, False)),
            lambda s: s.reverse(0),
            lambda s: s.add_vertex([(0, 1, 1, True)]),
        ]
        for mutate in mutations:
            store = make_store()
            store.ensure_maps()
            snap = store.snapshot()
            mutate(store)
            assert snap.to_lists() == SAMPLE, mutate
            # the shared accelerator must not have drifted either
            assert snap.ensure_maps()[0] == {
                h: (d, c, f) for h, d, c, f in SAMPLE[0]
            }
            assert_maps_match_packed(snap)
            assert_maps_match_packed(store)

    def test_overflow_table_copy_on_write(self):
        big = COUNT_SATURATED + 9
        store = LabelStore.from_lists([[(0, 1, big, True)]])
        snap = store.snapshot()
        store.set_at(0, 0, 0, 1, big + 1, True)
        assert snap.entries(0) == [(0, 1, big, True)]
        assert store.entries(0) == [(0, 1, big + 1, True)]

    def test_frozen_snapshot_rejects_all_mutation(self):
        snap = make_store().snapshot()
        with pytest.raises(FrozenSnapshotError):
            snap.set_at(0, 0, 0, 1, 1, True)
        with pytest.raises(FrozenSnapshotError):
            snap.insert_sorted(0, 3, 1, 1, True)
        with pytest.raises(FrozenSnapshotError):
            snap.delete_at(0, 0)
        with pytest.raises(FrozenSnapshotError):
            snap.replace_vertex(0, [])
        with pytest.raises(FrozenSnapshotError):
            snap.add_vertex()
        with pytest.raises(FrozenSnapshotError):
            snap.append_raw(0, (9, 1, 1, False))
        with pytest.raises(FrozenSnapshotError):
            snap.reverse(0)

    def test_two_epochs_diverge_independently(self):
        store = make_store()
        snap1 = store.snapshot()
        store.set_at(0, 0, 0, 5, 5, False)
        snap2 = store.snapshot()
        store.delete_at(0, 0)
        assert snap1.entries(0)[0] == (0, 0, 1, True)
        assert snap2.entries(0)[0] == (0, 5, 5, False)
        assert store.entries(0)[0] == (2, 3, 2, False)

    def test_snapshot_of_snapshot_is_free_and_frozen(self):
        snap = make_store().snapshot()
        again = snap.snapshot()
        assert again.frozen
        assert again.to_lists() == SAMPLE

    def test_snapshot_serializes_and_copies(self):
        store = make_store()
        snap = store.snapshot()
        store.replace_vertex(0, [])
        again = LabelStore.from_bytes(snap.to_bytes())
        assert again.to_lists() == SAMPLE
        clone = snap.copy()
        assert not clone.frozen
        clone.delete_at(0, 0)  # the copy of a snapshot is mutable
        assert snap.to_lists() == SAMPLE

    def test_untouched_vertices_stay_shared(self):
        store = make_store()
        snap = store.snapshot()
        store.set_at(0, 0, 0, 5, 5, False)
        # vertex 0 was copied; vertex 2 still shares its array object
        assert store.packed[0] is not snap.packed[0]
        assert store.packed[2] is snap.packed[2]


class TestViews:
    def test_table_and_view_equality(self):
        store = make_store()
        table = LabelTable(store)
        assert table == LabelTable(make_store())
        assert table == SAMPLE
        assert table[0] == SAMPLE[0]
        assert list(table[0]) == SAMPLE[0]
        assert (0, 0, 1, True) in table[0]
        assert table[0][-1] == (5, 7, 4, True)

    def test_view_mutations_write_through(self):
        store = make_store()
        view = LabelView(store, 0)
        view[1] = (2, 3, 11, True)
        assert store.entries(0)[1] == (2, 3, 11, True)
        view.append((7, 1, 1, False))
        assert store.entries(0)[-1] == (7, 1, 1, False)
        del view[-1]
        view.reverse()
        assert store.entries(0) == list(reversed(SAMPLE[0][:1] + [
            (2, 3, 11, True), (5, 7, 4, True),
        ]))

    def test_view_reverse_flags_follow_entries(self):
        store = make_store()
        LabelView(store, 0).reverse()
        assert store.entries(0) == list(reversed(SAMPLE[0]))

    def test_table_setitem_replaces_vertex(self):
        store = make_store()
        table = LabelTable(store)
        table[0] = [(1, 1, 1, True)]
        assert store.entries(0) == [(1, 1, 1, True)]

    def test_table_append_adds_vertex(self):
        store = make_store()
        LabelTable(store).append([(0, 0, 1, True)])
        assert len(store) == 4
