"""Construction benchmark: serial index-build throughput.

The build phase is the one cost every deployment pays — initial index
construction, and again on every rebuild fallback of the batch engine.
This benchmark keeps the construction-speed trajectory
(``BENCH_build.json``) alongside the query/update/serving files:

* per benchmark graph, the full CSC build under degree order is timed
  (best of ``repeat`` rounds) and reported as label entries/second, with
  no other index resident (``seconds``, ``entries_per_sec``);
* the same build is timed again while the previous index of the same
  graph is still resident (``rebuild_seconds``,
  ``rebuild_entries_per_sec``): that is the build the batch engine's
  rebuild fallback and crash recovery pay, in a process that already
  holds a large heap;
* the process's peak RSS after each dataset's builds is recorded, so a
  construction-memory regression shows up in the diff, not just wall
  clock.

Construction is one rank-ordered loop of pruned counting BFSes
(:func:`repro.build.build_label_tables`): each hub's BFS prunes against
every higher-ranked hub's labels, so the loop is sequential by design.

Usage::

    python benchmarks/bench_build.py             # small profile
    python benchmarks/bench_build.py --smoke     # tiny profile (CI)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.csc import CSCIndex  # noqa: E402
from repro.graph.datasets import DATASETS  # noqa: E402
from repro.labeling.ordering import degree_order  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_DATASETS = ("G04", "WKT", "WBB")
SEED = 7


def _timed_build(graph, order) -> tuple[int, CSCIndex]:
    t0 = time.perf_counter_ns()
    index = CSCIndex.build(graph, order)
    return time.perf_counter_ns() - t0, index


def bench_build(profile: str, datasets, repeat: int):
    out = {
        "datasets": {},
        "workload": "full CSC construction, degree order",
        "cpu_count": os.cpu_count(),
    }
    for name in datasets:
        graph = DATASETS[name].build(profile, SEED)
        order = degree_order(graph)
        best_ns = rebuild_ns = None
        entries = 0
        for _ in range(repeat):
            elapsed, index = _timed_build(graph, order)
            best_ns = elapsed if best_ns is None else min(best_ns, elapsed)
            # `index` stays resident while its replacement is built.
            elapsed, rebuilt = _timed_build(graph, order)
            rebuild_ns = (elapsed if rebuild_ns is None
                          else min(rebuild_ns, elapsed))
            entries = rebuilt.total_entries()
            del index, rebuilt
        out["datasets"][name] = {
            "n": graph.n,
            "m": graph.m,
            "label_entries": entries,
            "seconds": best_ns / 1e9,
            "entries_per_sec": entries / (best_ns / 1e9),
            "rebuild_seconds": rebuild_ns / 1e9,
            "rebuild_entries_per_sec": entries / (rebuild_ns / 1e9),
            # process high-water mark so far (monotone across datasets)
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
        }
    return out


def print_summary(build: dict) -> None:
    print(f"BENCH_build.json: serial construction on "
          f"{build['cpu_count']} cpu(s)")
    for name, row in build["datasets"].items():
        print(f"  {name}: {row['entries_per_sec']:.0f} entries/s "
              f"({row['seconds']:.2f}s, {row['label_entries']} entries, "
              f"peak RSS {row['peak_rss_kb'] / 1024:.0f} MB); "
              f"rebuild {row['rebuild_entries_per_sec']:.0f} entries/s "
              f"({row['rebuild_seconds']:.2f}s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile, one round (CI smoke job)")
    parser.add_argument("--profile", default=None,
                        help="dataset scale override (tiny/small/medium)")
    parser.add_argument("--datasets", default=None,
                        help="comma-separated dataset names")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timing rounds per dataset")
    parser.add_argument("--out-dir", default=str(REPO_ROOT))
    args = parser.parse_args(argv)

    profile = args.profile or ("tiny" if args.smoke else "small")
    datasets = (
        tuple(args.datasets.split(",")) if args.datasets else DEFAULT_DATASETS
    )
    repeat = args.repeat or (1 if args.smoke else 2)

    meta = {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "seed": SEED,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }

    t0 = time.perf_counter()
    build = {**meta, **bench_build(profile, datasets, repeat)}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_build.json").write_text(
        json.dumps(build, indent=2, sort_keys=True) + "\n"
    )
    print_summary(build)
    print(f"total bench time {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
