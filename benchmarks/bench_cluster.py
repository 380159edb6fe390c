"""Cluster serving benchmark: routed read QPS and replica lag vs replicas.

The scenario behind ``BENCH_cluster.json``: a durable primary drains a
deletion-heavy update stream while N replica processes tail its WAL,
each maintaining a full copy of the counter, and reader threads route
``sccnt`` queries through the :class:`~repro.cluster.ClusterRouter`.
Per replica count the harness reports the aggregate routed read
throughput over the writer's drain window and the distribution of the
replicas' epoch lag behind the primary (p99 and max of samples taken
every few milliseconds during the drain; the final lag must be zero).

Correctness gates before any timing is recorded, per replica count:

* a verification run with digest recording on — every epoch a replica
  publishes must carry a sha256(``to_bytes()``) digest equal to the
  primary's for that epoch (:meth:`Cluster.verify_replicas`), and each
  replica's final serialized state must be byte-identical to the
  primary's;
* reader threads assert the router's min-epoch consistency floor never
  moves backwards (violations surface as drive errors).

The timing run then repeats the workload with digest recording off so
the replication path is measured without the verification tax.

Honesty note: in a single-CPU container the primary, the replicas, and
the readers all share one core, so QPS is *not* expected to scale with
replica count — the numbers measure the overhead of process-based
replication (pipe RPC + WAL tailing), and the lag distribution shows
the replicas keeping up.  ``cpu_count`` is recorded so readers of the
JSON can tell which regime produced it.

Usage::

    python benchmarks/bench_cluster.py             # replicas 1/2/4
    python benchmarks/bench_cluster.py --smoke     # replicas 1/2 (CI)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster import Cluster  # noqa: E402
from repro.graph.datasets import DATASETS  # noqa: E402
from repro.service import (  # noqa: E402
    DurabilityConfig,
    ServeConfig,
    drive_mixed,
)
from repro.workloads.updates import mixed_update_stream  # noqa: E402

SCHEMA_VERSION = 1
SEED = 7
#: Deletion-heavy stream: 3 deletions per insertion (the expensive side).
INSERT_FRACTION = 0.25
DATASET = "G04"


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return float(ordered[idx])


def _config(data_dir: str, batch_size: int) -> ServeConfig:
    # checkpoint_on_stop off: the drive helper stops the engine before
    # the replicas are verified, and a stop-checkpoint prunes WAL
    # segments out from under still-catching-up tailers (forcing a
    # resync that discards the digest ledger the gate needs).
    return ServeConfig(
        batch_size=batch_size,
        durability=DurabilityConfig(
            data_dir=data_dir, checkpoint_on_stop=False,
        ),
    )


def _verify_run(graph, replicas, readers, total_ops, batch_size):
    """The bit-identity gate: digests on, every published epoch checked
    against the primary before the timing run is allowed to count."""
    with tempfile.TemporaryDirectory() as td:
        cluster = Cluster(
            graph.copy(), _config(td, batch_size),
            replicas=replicas, record_digests=True,
        )
        try:
            cluster.start()
            ops = mixed_update_stream(
                cluster.engine.counter.graph, total_ops, SEED,
                insert_fraction=INSERT_FRACTION,
            )
            result = drive_mixed(
                cluster.engine, ops, readers=readers,
                query_backend=cluster.router,
            )
            if result.errors:
                raise AssertionError(
                    f"replicas={replicas}: reader errors {result.errors}"
                )
            cluster.wait_for_epoch(result.final.epoch)
            checked = cluster.verify_replicas()
            expected = cluster.engine.counter.to_bytes()
            for client in cluster.router.live():
                if client.state_bytes() != expected:
                    raise AssertionError(
                        f"replicas={replicas}: {client.name} final state "
                        "is not byte-identical to the primary"
                    )
            return sum(checked.values())
        finally:
            cluster.stop()


def _routed_qps(router, vertices, readers, min_seconds):
    """Steady-state aggregate routed read throughput: ``readers``
    threads hammer ``router.sccnt`` for at least ``min_seconds``."""
    counts = [0] * readers
    deadline = time.perf_counter() + min_seconds

    def reader(slot):
        k = len(vertices)
        j = slot
        done = 0
        while time.perf_counter() < deadline:
            router.sccnt(vertices[j % k])
            j += 1
            done += 1
        counts[slot] = done

    threads = [
        threading.Thread(target=reader, args=(i,), daemon=True)
        for i in range(readers)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    return sum(counts) / elapsed if elapsed else 0.0


def _timing_run(graph, replicas, readers, total_ops, batch_size,
                qps_seconds):
    """Digests off: routed read QPS plus a lag-sample distribution."""
    with tempfile.TemporaryDirectory() as td:
        cluster = Cluster(
            graph.copy(), _config(td, batch_size),
            replicas=replicas, record_digests=False,
        )
        lag_samples: list[int] = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                try:
                    lag_samples.extend(
                        v for v in cluster.router.lag().values()
                        if v is not None
                    )
                except Exception:  # noqa: BLE001 - sampling is best-effort
                    pass
                time.sleep(0.002)

        try:
            cluster.start()
            ops = mixed_update_stream(
                cluster.engine.counter.graph, total_ops, SEED,
                insert_fraction=INSERT_FRACTION,
            )
            thread = threading.Thread(target=sampler, daemon=True)
            thread.start()
            result = drive_mixed(
                cluster.engine, ops, readers=readers,
                query_backend=cluster.router,
            )
            stop.set()
            thread.join()
            if result.errors:
                raise AssertionError(
                    f"replicas={replicas}: reader errors {result.errors}"
                )
            cluster.wait_for_epoch(result.final.epoch)
            final_lag = cluster.router.lag()
            if any(v != 0 for v in final_lag.values()):
                raise AssertionError(
                    f"replicas={replicas}: lag never drained: {final_lag}"
                )
            # Steady-state routed read rate once the stream has drained
            # (the drain window itself is a few ms — too short for a
            # meaningful per-RPC throughput number).
            qps = _routed_qps(
                cluster.router,
                list(range(cluster.engine.counter.graph.n)),
                readers, qps_seconds,
            )
            return result, lag_samples, qps
        finally:
            stop.set()
            cluster.stop()


def bench_cluster(profile, replica_counts, total_ops, batch_size,
                  qps_seconds):
    graph = DATASETS[DATASET].build(profile, SEED)
    out = {
        "dataset": DATASET,
        "n": graph.n,
        "m": graph.m,
        "workload": (
            f"mixed stream insert_fraction={INSERT_FRACTION}, "
            "one router reader thread per replica"
        ),
        "by_replicas": {},
    }
    best_qps = 0.0
    for replicas in replica_counts:
        readers = replicas  # read-side workers scale with the tier
        epochs_verified = _verify_run(
            graph, replicas, readers, total_ops, batch_size
        )
        result, lag_samples, qps = _timing_run(
            graph, replicas, readers, total_ops, batch_size, qps_seconds
        )
        stats = result.stats
        row = {
            "replicas": replicas,
            "readers": readers,
            "ops": result.ops,
            "batch_size": batch_size,
            "read_qps_aggregate": qps,
            "drain_seconds": result.drain_seconds,
            "epochs_published": stats.epoch,
            "lag_samples": len(lag_samples),
            "lag_p99_epochs": _percentile(lag_samples, 0.99),
            "lag_max_epochs": max(lag_samples, default=0),
            "epochs_verified_bit_identical": epochs_verified,
        }
        best_qps = max(best_qps, qps)
        out["by_replicas"][str(replicas)] = row
    out["aggregate"] = {"best_read_qps_aggregate": best_qps}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile, replicas 1/2 (CI smoke job)")
    parser.add_argument("--profile", default=None)
    parser.add_argument("--replicas", default=None,
                        help="comma-separated replica counts "
                        "(default 1,2,4; smoke 1,2)")
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--out-dir", default=str(REPO_ROOT))
    args = parser.parse_args(argv)

    # Default profile is tiny even off-smoke: every replica re-applies
    # every batch, so a small-profile stream whose batches hit the
    # ~6.5s rebuild fallback costs (1+replicas) rebuilds per batch —
    # minutes per replica count on one CPU.  Use --profile small on a
    # multicore box.
    profile = args.profile or "tiny"
    replica_counts = (
        tuple(int(r) for r in args.replicas.split(","))
        if args.replicas else ((1, 2) if args.smoke else (1, 2, 4))
    )
    total_ops = args.ops or (10 if args.smoke else 24)
    batch_size = args.batch_size or 4
    qps_seconds = 0.15 if args.smoke else 0.5

    meta = {
        "schema_version": SCHEMA_VERSION,
        "profile": profile,
        "seed": SEED,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "scaling_caveat": (
            "primary, replicas, and readers share "
            f"{os.cpu_count()} CPU(s); on a single CPU the QPS column "
            "measures replication overhead, not parallel speedup"
        ),
    }

    t0 = time.perf_counter()
    report = {**meta, **bench_cluster(
        profile, replica_counts, total_ops, batch_size, qps_seconds
    )}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_cluster.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"BENCH_cluster.json: {DATASET} ({report['n']} vertices), "
        f"{total_ops} ops, cpu_count={os.cpu_count()}"
    )
    for key, row in report["by_replicas"].items():
        print(
            f"  replicas={key}: {row['read_qps_aggregate']:.0f} routed "
            f"q/s aggregate, lag p99 {row['lag_p99_epochs']:.0f} / max "
            f"{row['lag_max_epochs']} epochs "
            f"({row['lag_samples']} samples), "
            f"{row['epochs_verified_bit_identical']} epoch digests "
            "verified bit-identical"
        )
    print(f"total bench time {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
