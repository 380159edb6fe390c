"""Unit tests for the benchmark's percentile, normalisation, self-time,
probe and tracing helpers."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostprobe  # noqa: E402
from stats import covered, percentile, self_time  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 0) == 1
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile(list(range(101)), 99) == 99
    assert percentile([10.0], 99) == 10.0
    assert percentile([0, 10], 25) == 2.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert covered([(-5, 1), (9, 20)], 0, 10) == 2
    assert covered([(11, 12)], 0, 10) == 0
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_coverage_once():
    # Two overlapping children cover [2, 6] of the [0, 10] span.
    assert self_time(0, 10, [(2, 5), (4, 6)]) == 6
    # A child sticking out of its parent only counts inside it.
    assert self_time(0, 10, [(8, 12)]) == 8
    assert self_time(0, 10, []) == 10


def test_rescale_to_reference_speed():
    ref = hostprobe.REF_PROBE_MS
    assert hostprobe.rescale(3.0, ref) == pytest.approx(3.0)
    # Measured while the probe ran 1.5x slower: the sample shrinks.
    assert hostprobe.rescale(3.0, 1.5 * ref) == pytest.approx(2.0)


def test_probe_readings_are_recorded():
    probe = hostprobe.Probe()
    ms = probe(1)
    assert ms > 0
    assert probe.readings == [ms]
    # The slice-median estimate covers the same run, minus slowdowns
    # confined to a few slices.
    assert len(probe.steady) == 1
    assert 0 < probe.steady[0] < 2 * ms


def test_proc_accounting_reads_this_process():
    assert hostprobe.cpu_seconds(os.getpid()) > 0
    assert hostprobe.peak_rss_mb(os.getpid()) > 1
    assert hostprobe.rss_bytes() > 0


def test_tracer_nests_spans_and_restores_methods():
    from repro import ShortestCycleCounter
    from repro.graph.generators import gnm_random
    from repro.service.snapshot import Snapshot

    original = Snapshot.__dict__["capture"]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.round = 7
        counter = ShortestCycleCounter.build(gnm_random(30, 90, seed=3))
        snap = Snapshot.capture(counter, epoch=1)
        snap.sccnt_many([0, 1, 2])
    finally:
        tracer.remove()
    assert Snapshot.__dict__["capture"] is original
    names = [s.name for s in tracer.spans]
    assert names == ["csc.build", "service.publish", "bulk.sccnt_many"]
    assert all(s.round == 7 and s.parent is None for s in tracer.spans)
    assert all(s.end >= s.start for s in tracer.spans)
    # Once removed, calls are no longer recorded.
    Snapshot.capture(counter)
    assert len(tracer.spans) == 3


def test_tracer_parent_is_enclosing_call():
    tracer = Tracer()
    inner = tracer._wrap(lambda: None, "inner")
    outer = tracer._wrap(lambda: inner(), "outer")
    outer()
    by_name = {s.name: (i, s) for i, s in enumerate(tracer.spans)}
    outer_idx, _ = by_name["outer"]
    assert by_name["inner"][1].parent == outer_idx
    assert by_name["outer"][1].parent is None
