"""Durability benchmark: WAL overhead on serving, recovery vs rebuild.

Two questions behind ``BENCH_recovery.json``:

1. **What does durability cost while serving?**  The same deletion-heavy
   update stream is drained three times — plain engine, durable engine
   with ``wal_fsync="off"`` (process-crash safety only), and durable
   with ``wal_fsync="always"`` (every batch record flushed before its
   epoch publishes).  The headline is ``wal_overhead_*``: the durable
   drain time as a multiple of the plain drain.
2. **What does a restart cost?**  Two scenarios, both timed against a
   from-scratch index rebuild on the final graph:

   * **crash** — the data dir is snapshotted *before* the clean stop
     and without its newest checkpoint (a crash just before that
     checkpoint was cut), so ``recover()`` pays checkpoint chain load
     plus replay of the WAL tail since the checkpoint before.  Replay
     folds each run of rebuild-bound batches into the graph and builds
     once for it (``crash_rebuilds`` counts the builds) and re-runs
     every other batch's maintenance, so the cost is load plus about
     one rebuild when the tail rebuilds, and grows with the tail (the
     checkpoint cadence) when it repairs.
   * **warm** — after the clean stop (final checkpoint written),
     recovery is a pure zero-copy RPLS load; this is where the packed
     serialization shines and the restart beats rebuild outright.

   Both recoveries are asserted bit-identical to the live engine's
   final label bytes before any number is recorded.

Every timed region is best-of-``--repeats`` (min): single-shot drain
and recovery timings swing 2x with machine load, which made the
regression gate flip on noise rather than code.

Usage::

    python benchmarks/bench_recovery.py             # small profile
    python benchmarks/bench_recovery.py --smoke     # tiny profile (CI)
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.csc import CSCIndex  # noqa: E402
from repro.graph.datasets import DATASETS  # noqa: E402
from repro.persist import recover  # noqa: E402
from repro.service import ServeEngine  # noqa: E402
from repro.workloads.updates import mixed_update_stream  # noqa: E402

SCHEMA_VERSION = 1
DEFAULT_DATASETS = ("G04", "WKT", "WBB")
SEED = 7
#: Deletion-heavy stream, matching bench_serve.
INSERT_FRACTION = 0.25


def _drain(graph, ops, batch_size, **engine_kwargs) -> float:
    """Seconds for one engine to drain ``ops`` (no readers)."""
    engine = ServeEngine(
        graph.copy(), batch_size=batch_size, **engine_kwargs
    )
    engine.start()
    try:
        t0 = time.perf_counter()
        engine.submit_many(ops)
        engine.flush()
        return time.perf_counter() - t0
    finally:
        engine.stop()


def _timed_best(repeats: int, fn):
    """``(last_result, best_seconds)`` over ``repeats`` calls — the
    minimum estimates the noise-free floor of an idempotent operation."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def bench_recovery(
    profile: str,
    datasets,
    total_ops: int,
    batch_size: int,
    checkpoint_wal_bytes: int,
    repeats: int = 3,
):
    out = {
        "datasets": {},
        "workload": (
            f"mixed stream insert_fraction={INSERT_FRACTION}, "
            f"batches of {batch_size}, checkpoint at "
            f"{checkpoint_wal_bytes} WAL bytes"
        ),
    }
    overheads_fsync = []
    warm_speedups = []
    crash_speedups = []
    for name in datasets:
        graph = DATASETS[name].build(profile, SEED)
        ops = mixed_update_stream(
            graph, total_ops, SEED, insert_fraction=INSERT_FRACTION
        )
        if not ops:
            continue

        plain_s = min(
            _drain(graph, ops, batch_size) for _ in range(repeats)
        )
        tmp = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
        try:
            nosync_s = min(
                _drain(
                    graph, ops, batch_size,
                    data_dir=str(tmp / f"nosync-{i}"),
                    wal_fsync="off",
                    checkpoint_wal_bytes=checkpoint_wal_bytes,
                    checkpoint_on_stop=False,
                )
                for i in range(repeats)
            )
            fsync_runs = []
            for i in range(repeats):
                data_dir = tmp / f"durable-{i}"
                engine = ServeEngine(
                    graph.copy(),
                    batch_size=batch_size,
                    data_dir=str(data_dir),
                    wal_fsync="always",
                    checkpoint_wal_bytes=checkpoint_wal_bytes,
                    checkpoint_on_stop=True,
                )
                engine.start()
                t0 = time.perf_counter()
                engine.submit_many(ops)
                engine.flush()
                fsync_runs.append(time.perf_counter() - t0)
                if i < repeats - 1:
                    engine.stop()
            fsync_s = min(fsync_runs)
            # The last durable run feeds the recovery scenarios — every
            # run drained the identical stream, so its final state is
            # the same state.
            live_bytes = engine.counter.index.to_bytes()
            final_graph = engine.counter.graph.copy()
            order = list(engine.counter.index.order)
            dur = engine.durability_stats()
            # Freeze the pre-shutdown state as a crash just before the
            # writer cut its newest checkpoint would leave it: no final
            # checkpoint, and a WAL tail of the records since the one
            # before.  The writer may still be cutting that checkpoint
            # after flush() returned, so copy under its durability lock
            # (a temp file vanishing mid-copy fails copytree), then drop
            # the newest checkpoint file; WAL pruning lags one
            # checkpoint generation, so the tail is still on disk.
            crash_dir = tmp / "crashed"
            with engine._dur_lock:
                shutil.copytree(data_dir, crash_dir)
            ckpts = sorted((crash_dir / "checkpoints").glob("ckpt-*"))
            if len(ckpts) > 1:
                ckpts[-1].unlink()
            engine.stop()  # writes the final checkpoint -> warm dir

            crash_result, crash_s = _timed_best(
                repeats, lambda: recover(crash_dir)
            )
            warm_result, warm_s = _timed_best(
                repeats, lambda: recover(data_dir)
            )
            for label, result in (
                ("crash", crash_result), ("warm", warm_result)
            ):
                if result.counter.index.to_bytes() != live_bytes:
                    raise AssertionError(
                        f"{name}: {label} recovery diverged from the "
                        "live engine state"
                    )
            if warm_result.records_replayed:
                raise AssertionError(
                    f"{name}: warm recovery unexpectedly replayed "
                    f"{warm_result.records_replayed} records"
                )

            _, rebuild_s = _timed_best(
                repeats, lambda: CSCIndex.build(final_graph, order)
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

        overhead_off = nosync_s / plain_s if plain_s else 0.0
        overhead_fsync = fsync_s / plain_s if plain_s else 0.0
        warm_speedup = rebuild_s / warm_s if warm_s else 0.0
        crash_speedup = rebuild_s / crash_s if crash_s else 0.0
        overheads_fsync.append(overhead_fsync)
        warm_speedups.append(warm_speedup)
        crash_speedups.append(crash_speedup)
        replayed = crash_result.records_replayed
        out["datasets"][name] = {
            "n": graph.n,
            "m": graph.m,
            "ops": len(ops),
            "plain_drain_ms": plain_s * 1e3,
            "durable_nosync_drain_ms": nosync_s * 1e3,
            "durable_fsync_drain_ms": fsync_s * 1e3,
            "wal_overhead_nosync": overhead_off,
            "wal_overhead_fsync": overhead_fsync,
            "durable_ops_per_sec": (
                len(ops) / fsync_s if fsync_s else 0.0
            ),
            "wal_records": dur.wal_records,
            "wal_bytes": dur.wal_bytes,
            "checkpoints_written": dur.checkpoints_written,
            "checkpoint_bytes": dur.checkpoint_bytes,
            "rebuild_ms": rebuild_s * 1e3,
            "recovery_warm_ms": warm_s * 1e3,
            "recovery_warm_speedup_vs_rebuild": warm_speedup,
            "recovery_crash_ms": crash_s * 1e3,
            "recovery_crash_speedup_vs_rebuild": crash_speedup,
            "crash_records_replayed": replayed,
            "crash_rebuilds": crash_result.rebuilds,
            "crash_replay_ms_per_record": (
                (crash_s - warm_s) * 1e3 / replayed if replayed else 0.0
            ),
            "checkpoint_chain_length": crash_result.checkpoint_chain_length,
            "bit_identical_to_live": True,
        }
    out["aggregate"] = {
        "mean_wal_overhead_fsync": (
            sum(overheads_fsync) / len(overheads_fsync)
            if overheads_fsync else 0.0
        ),
        "mean_warm_recovery_speedup_vs_rebuild": (
            sum(warm_speedups) / len(warm_speedups)
            if warm_speedups else 0.0
        ),
        "min_warm_recovery_speedup_vs_rebuild": (
            min(warm_speedups) if warm_speedups else 0.0
        ),
        "mean_crash_recovery_speedup_vs_rebuild": (
            sum(crash_speedups) / len(crash_speedups)
            if crash_speedups else 0.0
        ),
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile, small stream (CI smoke job)")
    parser.add_argument("--profile", default=None)
    parser.add_argument("--datasets", default=None,
                        help="comma-separated dataset names")
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--checkpoint-bytes", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N for every timed region")
    parser.add_argument("--out-dir", default=str(REPO_ROOT))
    args = parser.parse_args(argv)

    profile = args.profile or ("tiny" if args.smoke else "small")
    datasets = (
        tuple(args.datasets.split(",")) if args.datasets else DEFAULT_DATASETS
    )
    total_ops = args.ops or (12 if args.smoke else 48)
    batch_size = args.batch_size or (4 if args.smoke else 8)
    # ~2-3 batch records per checkpoint at the default batch size, so
    # the crash scenario replays a short tail rather than the full log.
    checkpoint_bytes = args.checkpoint_bytes or (128 if args.smoke else 300)

    meta = {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "seed": SEED,
        "smoke": args.smoke,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }

    t0 = time.perf_counter()
    data = {
        **meta,
        **bench_recovery(
            profile, datasets, total_ops, batch_size, checkpoint_bytes,
            repeats=args.repeats,
        ),
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_recovery.json").write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    agg = data["aggregate"]
    print(
        f"BENCH_recovery.json: mean fsync WAL overhead "
        f"{agg['mean_wal_overhead_fsync']:.2f}x drain; warm recovery "
        f"{agg['mean_warm_recovery_speedup_vs_rebuild']:.1f}x / crash "
        f"recovery {agg['mean_crash_recovery_speedup_vs_rebuild']:.1f}x "
        "faster than rebuild (mean)"
    )
    for name, row in data["datasets"].items():
        print(
            f"  {name}: drain plain {row['plain_drain_ms']:.0f}ms / "
            f"fsync {row['durable_fsync_drain_ms']:.0f}ms "
            f"({row['wal_overhead_fsync']:.2f}x); rebuild "
            f"{row['rebuild_ms']:.0f}ms vs warm recovery "
            f"{row['recovery_warm_ms']:.0f}ms "
            f"({row['recovery_warm_speedup_vs_rebuild']:.1f}x) / crash "
            f"{row['recovery_crash_ms']:.0f}ms "
            f"({row['recovery_crash_speedup_vs_rebuild']:.1f}x, "
            f"{row['crash_records_replayed']} records replayed, "
            f"{row['crash_rebuilds']} rebuilds)"
        )
    print(f"total bench time {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
