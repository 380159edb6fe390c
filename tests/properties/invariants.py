"""Reusable label-invariant assertions for post-update CSC indexes.

``test_label_invariants.py`` checks the *static* build (where labels are
canonical and minimal).  After dynamic maintenance — especially batches
under the redundancy strategy — labels may legitimately carry dominated
leftovers, so the reusable invariant set is the weaker one that every
maintenance path must preserve:

* structural health (:meth:`CSCIndex.validate`): rank order is a
  permutation, labels sorted by hub rank without duplicates, hub ranks
  never below the labeled vertex (couple-skipped ``Vin`` hubs only),
  self entries present, counts positive, inverted indexes consistent;
* no entry claims a distance *shorter* than the true ``Gb`` distance
  (stale redundancy leftovers are always dominated, never optimistic —
  an optimistic entry would corrupt query minima);
* the canonical cover answers every cycle query exactly (against the
  BFS oracle);
* each store's query accelerator is exactly its packed entries, in the
  ``(dist, hub)`` order the early-exit joins rely on
  (:func:`assert_maps_match_packed`).

``assert_minimal_entries`` adds the minimality-strategy guarantee: every
surviving entry's distance is *exact*.
"""

from repro.baselines.bfs_cycle import bfs_cycle_count
from repro.core.csc import CSCIndex
from repro.graph.bipartite import (
    bipartite_conversion,
    in_vertex,
    out_vertex,
)
from repro.graph.traversal import INF, bfs_distance_between
from repro.labeling.labelstore import LabelStore


def _true_gb_distances(index: CSCIndex):
    gb = bipartite_conversion(index.graph)

    def d_in(hub: int, v: int) -> float:
        return bfs_distance_between(gb, in_vertex(hub), in_vertex(v))

    def d_out(v: int, hub: int) -> float:
        return bfs_distance_between(gb, out_vertex(v), in_vertex(hub))

    return d_in, d_out


def assert_maps_match_packed(store: LabelStore) -> None:
    """Every resident ``_maps[v]`` equals the decode of ``packed[v]``,
    ``canon[v]`` and ``big[v]`` and iterates in ascending ``(dist,
    hub)``."""
    if store._maps is None:
        return
    assert len(store._maps) == len(store.packed)
    for v, vmap in enumerate(store._maps):
        want = sorted((d, h, c, f) for h, d, c, f in store.entries(v))
        got = [(d, h, c, f) for h, (d, c, f) in vmap.items()]
        assert got == want, f"vertex {v}: map {got} != packed {want}"


def assert_label_invariants(index: CSCIndex) -> None:
    """Invariants every maintenance path (per-edge, batched, and the
    batch rebuild fallback) must leave intact."""
    problems = index.validate()
    assert problems == [], problems
    assert_maps_match_packed(index.store_in)
    assert_maps_match_packed(index.store_out)
    d_in, d_out = _true_gb_distances(index)
    for v in index.graph.vertices():
        for q, d, _c, _f in index.label_in[v]:
            true = d_in(index.order[q], v)
            assert true is not INF and d >= true, (
                f"Lin({v}) hub {q}: stored {d} below true distance {true}"
            )
        for q, d, _c, _f in index.label_out[v]:
            true = d_out(v, index.order[q])
            assert true is not INF and d >= true, (
                f"Lout({v}) hub {q}: stored {d} below true distance {true}"
            )
        assert index.sccnt(v) == bfs_cycle_count(index.graph, v)


def assert_minimal_entries(index: CSCIndex) -> None:
    """Minimality-strategy extra: every stored distance is exact."""
    d_in, d_out = _true_gb_distances(index)
    for v in index.graph.vertices():
        for q, d, _c, _f in index.label_in[v]:
            assert d == d_in(index.order[q], v)
        for q, d, _c, _f in index.label_out[v]:
            assert d == d_out(v, index.order[q])
