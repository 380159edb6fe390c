"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``stats <edgelist>`` — graph statistics for a SNAP-style edge list;
* ``build <edgelist> <index>`` — build a CSC index and persist it;
* ``query <index> <vertex> [vertex ...]`` — SCCnt queries over a saved
  index; ``--batch FILE`` reads a whole query batch (one vertex per
  line for SCCnt, two for SPCnt pairs) and answers it in one batch
  call (``count_many`` / ``spcnt_many``);
* ``profile <edgelist>`` — whole-graph cycle profile (girth, length
  distribution, top vertices);
* ``batch-update <edgelist>`` — replay a mixed update stream through the
  batched maintenance engine (optionally comparing against per-edge
  maintenance);
* ``serve <edgelist>`` — snapshot-isolated concurrent serving: N reader
  threads answer queries against published snapshots while the single
  writer drains an update stream (optionally verifying the final epoch
  against a serial replay; ``--data-dir`` makes the run durable); all
  engine flags are generated from the :class:`ServeConfig` dataclasses
  and a whole config loads from ``--config FILE`` (JSON);
* ``cluster serve <edgelist>`` — sharded replica serving: a durable
  primary plus ``--replicas`` replica processes, each tailing the
  primary's WAL into its own replica of the counter and publishing its
  labels as a memory-mapped image that routed queries read in place;
  every replica-published epoch is digest-verified bit-identical to the
  primary;
* ``cluster status <data_dir>`` — offline view of a primary's
  durability directory as a replica bootstrap source;
* ``recover <data_dir>`` — reconstruct a counter from a durability
  directory (latest checkpoint chain + WAL replay) and report how;
* ``datasets`` — list the built-in dataset stand-ins;
* ``experiments [ids ...]`` — regenerate paper tables/figures.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import Sequence

from repro.analysis import profile_graph
from repro.bench.tables import format_table
from repro.core.batch import DEFAULT_REBUILD_THRESHOLD
from repro.core.counter import ShortestCycleCounter
from repro.core.maintenance import STRATEGIES
from repro.graph.datasets import DATASET_ORDER, DATASETS, PAPER_SIZES
from repro.graph.io import read_edge_list
from repro.service.config import add_config_arguments

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSC: real-time shortest-cycle counting (ICDE 2022 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="graph statistics for an edge list")
    p.add_argument("edgelist")

    p = sub.add_parser("build", help="build a CSC index and save it")
    p.add_argument("edgelist")
    p.add_argument("index")

    p = sub.add_parser("query", help="SCCnt queries over a saved index")
    p.add_argument("index")
    p.add_argument("vertices", nargs="*", type=int)
    p.add_argument("--batch", default=None, metavar="FILE",
                   help="answer a batch file in one batch call: one "
                        "vertex id per line = SCCnt, two ids per line = "
                        "SPCnt pairs (uniform within the file; blank "
                        "lines and #-comments ignored)")

    p = sub.add_parser("profile", help="whole-graph cycle profile")
    p.add_argument("edgelist")
    p.add_argument("--top", type=int, default=10)

    p = sub.add_parser(
        "batch-update",
        help="replay a mixed update stream in maintenance batches",
    )
    p.add_argument("edgelist")
    p.add_argument("--ops", type=int, default=64,
                   help="total update ops to generate (default 64)")
    p.add_argument("--batch-size", type=int, default=16,
                   help="ops per maintenance batch (default 16)")
    p.add_argument("--insert-fraction", type=float, default=0.5,
                   help="fraction of ops that are insertions (default 0.5)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=list(STRATEGIES),
                   default="redundancy")
    p.add_argument("--rebuild-threshold", type=float,
                   default=DEFAULT_REBUILD_THRESHOLD,
                   help="affected-hub fraction above which a batch falls "
                   "back to a full rebuild")
    p.add_argument("--no-cluster", action="store_true",
                   help="keep stream order instead of degree-ordering "
                   "the batches")
    p.add_argument("--compare", action="store_true",
                   help="also replay the stream per edge and report the "
                   "batch speedup")

    p = sub.add_parser(
        "serve",
        help="snapshot-isolated serving: reader threads vs one writer",
    )
    p.add_argument("edgelist")
    p.add_argument("--readers", type=int, default=2,
                   help="reader threads hammering snapshots (default 2)")
    p.add_argument("--ops", type=int, default=128,
                   help="update ops to stream through the writer "
                   "(default 128)")
    p.add_argument("--insert-fraction", type=float, default=0.25,
                   help="fraction of ops that are insertions (default "
                   "0.25: deletion-heavy, the expensive side)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify", action="store_true",
                   help="replay the stream serially and check the final "
                   "epoch is bit-identical")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="ServeConfig JSON file (ServeConfig.to_dict "
                   "shape); engine flags below override its values")
    # Engine flags are generated from the ServeConfig dataclasses (one
    # flag per field) so the CLI can never drift from the config surface.
    add_config_arguments(p)

    p = sub.add_parser(
        "cluster",
        help="sharded replica serving: reader processes tail the "
        "primary's WAL",
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)
    pc = csub.add_parser(
        "serve",
        help="run a primary + N replica processes and route queries",
    )
    pc.add_argument("edgelist")
    pc.add_argument("--replicas", type=int, default=2,
                    help="replica reader processes tailing the WAL "
                    "(default 2)")
    pc.add_argument("--readers", type=int, default=2,
                    help="reader threads hammering the router (default 2)")
    pc.add_argument("--ops", type=int, default=64,
                    help="update ops to stream through the primary "
                    "(default 64)")
    pc.add_argument("--insert-fraction", type=float, default=0.25,
                    help="fraction of ops that are insertions "
                    "(default 0.25)")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--config", default=None, metavar="FILE",
                    help="ServeConfig JSON file; engine flags below "
                    "override its values (--data-dir is required either "
                    "way: the WAL is the replication transport)")
    add_config_arguments(pc)
    pc = csub.add_parser(
        "status",
        help="offline durability-directory status: what a replica "
        "bootstrapping now would recover and tail",
    )
    pc.add_argument("data_dir",
                    help="primary durability directory (the replication "
                    "log)")

    p = sub.add_parser(
        "recover",
        help="recover a counter from a durability directory",
    )
    p.add_argument("data_dir",
                   help="directory written by `repro serve --data-dir`")
    p.add_argument("--out", default=None,
                   help="save the recovered graph+index to this file "
                   "(readable by `repro query`)")
    p.add_argument("--verify", action="store_true",
                   help="rebuild the index from the recovered graph and "
                   "check every vertex count matches")
    p.add_argument("--dead-letter", action="store_true",
                   help="inspect the quarantined (poison) batches in "
                   "the data dir's dead-letter log instead of running "
                   "a recovery")
    p.add_argument("--drain", action="store_true",
                   help="with --dead-letter: delete the dead-letter "
                   "log after printing it")

    sub.add_parser("datasets", help="list built-in dataset stand-ins")

    p = sub.add_parser("experiments", help="regenerate paper artifacts")
    p.add_argument("ids", nargs="*", help="subset (e.g. table2 fig9)")
    p.add_argument("--profile", default="small", dest="exp_profile")

    p = sub.add_parser(
        "analyze",
        help="run the repo's invariant checkers (REP001-REP005)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to scan (default: the "
                   "installed repro package)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   dest="fmt", help="report format (default: text)")
    p.add_argument("--suppressions", default=None,
                   help="suppression file (default: the checked-in "
                   "analysis-suppressions.txt)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    return parser


def _cmd_stats(args) -> int:
    graph = read_edge_list(args.edgelist)
    from repro.graph.datasets import dataset_statistics

    stats = dataset_statistics(graph)
    rows = [[key, value] for key, value in stats.items()]
    print(format_table(["statistic", "value"], rows, title=args.edgelist))
    return 0


def _cmd_build(args) -> int:
    graph = read_edge_list(args.edgelist)
    start = time.perf_counter()
    counter = ShortestCycleCounter.build(graph, copy_graph=False)
    elapsed = time.perf_counter() - start
    counter.save(args.index)
    stats = counter.stats()
    print(
        f"built CSC index for n={stats['n']} m={stats['m']} in "
        f"{elapsed:.2f}s ({stats['label_entries']} entries, "
        f"{stats['size_bytes']} bytes) -> {args.index}"
    )
    return 0


def _cmd_query(args) -> int:
    counter = ShortestCycleCounter.load(args.index)
    if args.batch is not None:
        if args.vertices:
            print("error: give either positional vertices or --batch, "
                  "not both", file=sys.stderr)
            return 2
        return _query_batch(counter, args.batch)
    if not args.vertices:
        print("error: no vertices given (and no --batch file)",
              file=sys.stderr)
        return 2
    rows = []
    for v in args.vertices:
        if not 0 <= v < counter.graph.n:
            print(f"vertex {v} out of range (n={counter.graph.n})",
                  file=sys.stderr)
            return 2
        result = counter.count(v)
        rows.append(
            [v, result.count, result.length if result.has_cycle else "-"]
        )
    print(format_table(["vertex", "sccnt", "length"], rows))
    return 0


def _query_batch(counter: ShortestCycleCounter, path: str) -> int:
    """Answer a batch file in one batch call (1 id per line =
    SCCnt, 2 ids = SPCnt pairs; arity must be uniform)."""
    from repro.errors import BatchVertexError

    rows_in: list[list[int]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                tokens = line.split("#", 1)[0].split()
                if not tokens:
                    continue
                if len(tokens) > 2:
                    print(f"error: {path}:{lineno}: expected 1 or 2 "
                          f"ids per line, got {len(tokens)}",
                          file=sys.stderr)
                    return 2
                try:
                    rows_in.append([int(t) for t in tokens])
                except ValueError:
                    print(f"error: {path}:{lineno}: non-integer id",
                          file=sys.stderr)
                    return 2
    except OSError as exc:
        print(f"error: cannot read batch file: {exc}", file=sys.stderr)
        return 2
    if not rows_in:
        print(f"error: batch file {path} holds no queries",
              file=sys.stderr)
        return 2
    arities = {len(r) for r in rows_in}
    if len(arities) != 1:
        print(f"error: {path} mixes SCCnt (1 id) and SPCnt (2 id) "
              "lines; one arity per file", file=sys.stderr)
        return 2
    try:
        if arities == {1}:
            results = counter.count_many([r[0] for r in rows_in])
            rows = [
                [r[0], c.count, c.length if c.has_cycle else "-"]
                for r, c in zip(rows_in, results)
            ]
            print(format_table(["vertex", "sccnt", "length"], rows))
        else:
            results = counter.spcnt_many([(r[0], r[1]) for r in rows_in])
            rows = [
                [r[0], r[1], c.count, c.dist if c.reachable else "-"]
                for r, c in zip(rows_in, results)
            ]
            print(format_table(["x", "y", "spcnt", "dist"], rows))
    except BatchVertexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args) -> int:
    graph = read_edge_list(args.edgelist)
    profile = profile_graph(graph)
    print(f"girth: {profile.girth}")
    print(f"cyclic vertices: {profile.cyclic_vertices}/{graph.n}")
    dist_rows = sorted(profile.length_distribution.items())
    print(format_table(["cycle length", "vertices"], dist_rows))
    top_rows = [
        [v, c.count, c.length] for v, c in profile.top_by_count(args.top)
    ]
    print(format_table(["vertex", "sccnt", "length"], top_rows,
                       title=f"top {args.top} by count"))
    return 0


def _cmd_batch_update(args) -> int:
    from repro.workloads.updates import batched_workload

    graph = read_edge_list(args.edgelist)
    counter = ShortestCycleCounter.build(
        graph, strategy=args.strategy, copy_graph=False
    )
    workload = batched_workload(
        counter.graph,
        args.ops,
        args.batch_size,
        seed=args.seed,
        insert_fraction=args.insert_fraction,
        cluster=not args.no_cluster,
    )
    if not workload.batches:
        print("no feasible update ops on this graph")
        return 0
    ops = workload.ops
    rows = []
    batch_time = 0.0
    for i, batch in enumerate(workload.batches):
        start = time.perf_counter()
        stats = counter.apply_batch(
            batch, rebuild_threshold=args.rebuild_threshold
        )
        elapsed = time.perf_counter() - start
        batch_time += elapsed
        rows.append(
            [
                i,
                stats.submitted,
                stats.inserted,
                stats.deleted,
                stats.hubs_processed,
                stats.net_entry_delta,
                "rebuild" if stats.rebuilt else "incremental",
                f"{elapsed * 1e3:.1f}",
            ]
        )
    print(
        format_table(
            ["batch", "ops", "ins", "del", "hubs", "entries±", "path",
             "ms"],
            rows,
            title=f"{len(ops)} ops in batches of {args.batch_size}",
        )
    )
    agg = counter.stats()
    print(
        f"applied {agg['edges_inserted']} insertions and "
        f"{agg['edges_deleted']} deletions across "
        f"{agg['batches_applied']} batches "
        f"({agg['batch_rebuilds']} rebuild fallbacks) in "
        f"{batch_time * 1e3:.1f} ms"
    )
    if args.compare:
        per_edge = ShortestCycleCounter.build(
            read_edge_list(args.edgelist),
            strategy=args.strategy,
            copy_graph=False,
        )
        start = time.perf_counter()
        for op, tail, head in ops:
            if op == "insert":
                per_edge.insert_edge(tail, head)
            else:
                per_edge.delete_edge(tail, head)
        edge_time = time.perf_counter() - start
        speedup = edge_time / batch_time if batch_time else float("inf")
        print(
            f"per-edge replay: {edge_time * 1e3:.1f} ms -> batch speedup "
            f"{speedup:.2f}x"
        )
    return 0


def _resolve_config(args, base=None):
    """The effective :class:`ServeConfig` for a CLI run: defaults (or
    ``base``), then ``--config FILE``, then any flags actually passed."""
    from repro.service import config_from_args, load_config_file

    if getattr(args, "config", None) is not None:
        base = load_config_file(args.config)
    return config_from_args(args, base=base)


def _cmd_serve(args) -> int:
    from repro.service import (
        ServeConfig,
        ServeEngine,
        drive_mixed,
        idle_read_throughput,
        serial_replay,
    )
    from repro.workloads.updates import mixed_update_stream

    graph = read_edge_list(args.edgelist)
    # One flag per ServeConfig field (see add_config_arguments); serve
    # keeps its historical batch_size=16 default via the base config.
    config = _resolve_config(args, base=ServeConfig(batch_size=16))
    data_dir = config.durability.data_dir
    # Build the engine first: with --data-dir pointing at existing
    # state the engine *resumes* that state (the edge list is only the
    # bootstrap source), and the op stream, idle baseline, and --verify
    # oracle below must all be generated against the engine's actual
    # graph, not the file's.
    try:
        engine = ServeEngine(
            ShortestCycleCounter.build(
                graph, strategy=config.strategy or "redundancy",
                copy_graph=False,
            ) if data_dir is None else graph,
            config=config,
        )
    except ValueError as exc:
        # e.g. --strategy conflicting with the data dir's recorded one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    counter = engine.counter
    if engine.recovery is not None:
        rec = engine.recovery
        print(
            f"resumed {data_dir}: epoch {rec.epoch} "
            f"(ops_applied={rec.ops_applied}, "
            f"{rec.records_replayed} WAL records replayed, "
            f"{rec.rebuilds} rebuilds); "
            "the edge list was ignored"
        )
    base = counter.graph.copy() if args.verify else None
    ops = mixed_update_stream(
        counter.graph, args.ops, args.seed,
        insert_fraction=args.insert_fraction,
    )
    if not ops:
        engine.stop()  # release durability file handles, if any
        print("no feasible update ops on this graph")
        return 0
    idle = idle_read_throughput(counter, range(counter.graph.n))
    # batch_size/strategy were configured on the engine above.
    result = drive_mixed(engine, ops, readers=args.readers)
    if result.errors:
        for line in result.errors:
            print(line, file=sys.stderr)
        return 1
    stats = result.stats
    rows = [
        [i, queries, f"{queries / result.drain_seconds:.0f}"]
        for i, queries in enumerate(result.reader_queries)
    ]
    print(format_table(
        ["reader", "queries", "qps"],
        rows,
        title=f"{args.readers} readers vs 1 writer "
        f"({len(ops)} ops, batches of {config.batch_size})",
    ))
    ratio = result.queries_per_second / idle if idle else 0.0
    print(
        f"writer: drained {stats.ops_consumed} ops in "
        f"{result.drain_seconds * 1e3:.1f} ms across {stats.batches} "
        f"batches ({stats.rebuilds} rebuild fallbacks, "
        f"{stats.ops_skipped} skipped), published {stats.epoch} epochs"
    )
    if result.ops_shed or result.ops_rejected or stats.quarantined:
        print(
            f"admission/faults: {result.ops_shed} ops shed, "
            f"{result.ops_rejected} rejected, {stats.quarantined} "
            f"batches quarantined (health: {stats.health})"
        )
    print(
        f"readers: {result.queries_per_second:.0f} queries/s aggregate "
        f"while draining — {100 * ratio:.0f}% of the idle single-thread "
        f"rate ({idle:.0f} q/s); {result.epochs_seen} epochs observed"
    )
    if result.durability is not None:
        dur = result.durability
        print(
            f"durability: {dur.wal_records} WAL records "
            f"({dur.wal_bytes} bytes, {dur.wal_segments} segments), "
            f"{dur.checkpoints_written} checkpoints "
            f"({dur.checkpoint_bytes} bytes) -> {data_dir}"
        )
    if args.verify:
        # The engine's actual strategy (recorded one when resuming).
        replay = serial_replay(base, ops, strategy=counter.strategy)
        final = result.final
        mismatches = sum(
            1 for v in range(final.n) if final.count(v) != replay.count(v)
        )
        if mismatches:
            print(f"VERIFY FAILED: {mismatches} vertices diverge from the "
                  "serial replay", file=sys.stderr)
            return 1
        print(f"verify: final epoch bit-identical to serial replay of "
              f"{len(ops)} ops over {final.n} vertices")
    return 0


def _cmd_cluster(args) -> int:
    if args.cluster_command == "status":
        return _cluster_status(args)
    return _cluster_serve(args)


def _cluster_serve(args) -> int:
    from repro.cluster import Cluster
    from repro.service import DurabilityConfig, ServeConfig, drive_mixed
    from repro.workloads.updates import mixed_update_stream

    graph = read_edge_list(args.edgelist)
    # checkpoint_on_stop defaults off here: the final stop-checkpoint
    # prunes WAL segments, and a still-catching-up replica hitting that
    # prune resyncs — discarding the digest ledger the closing
    # verification needs.  --checkpoint-on-stop opts back in.
    config = _resolve_config(
        args,
        base=ServeConfig(
            durability=DurabilityConfig(checkpoint_on_stop=False)
        ),
    )
    cluster = Cluster(graph, config, replicas=args.replicas)
    try:
        cluster.start()
        counter = cluster.engine.counter
        if cluster.engine.recovery is not None:
            rec = cluster.engine.recovery
            print(
                f"resumed {config.durability.data_dir}: epoch "
                f"{rec.epoch} (ops_applied={rec.ops_applied}); "
                "the edge list was ignored"
            )
        ops = mixed_update_stream(
            counter.graph, args.ops, args.seed,
            insert_fraction=args.insert_fraction,
        )
        if not ops:
            print("no feasible update ops on this graph")
            return 0
        result = drive_mixed(
            cluster.engine, ops, readers=args.readers,
            query_backend=cluster.router,
        )
        if result.errors:
            for line in result.errors:
                print(line, file=sys.stderr)
            return 1
        final = result.final
        cluster.wait_for_epoch(final.epoch)
        checked = cluster.verify_replicas()
        lag = cluster.router.lag()
        rows = [
            [name, info["state"], info["epoch"],
             "-" if lag[name] is None else lag[name],
             info["resyncs"], checked.get(name, 0)]
            for name, info in cluster.router.health().items()
        ]
        print(format_table(
            ["replica", "state", "epoch", "lag", "resyncs", "verified"],
            rows,
            title=f"{args.replicas} replicas tailing 1 primary "
            f"({len(ops)} ops, batches of {config.batch_size})",
        ))
        stats = result.stats
        print(
            f"primary: drained {stats.ops_consumed} ops in "
            f"{result.drain_seconds * 1e3:.1f} ms, published "
            f"{stats.epoch} epochs -> {config.durability.data_dir}"
        )
        print(
            f"router: {result.queries_per_second:.0f} queries/s "
            f"aggregate across {args.readers} readers "
            f"({cluster.router.queries_routed} routed, "
            f"{cluster.router.failovers} failovers)"
        )
        print(
            f"verify: {sum(checked.values())} replica-published epoch "
            "digests bit-identical to the primary"
        )
    finally:
        cluster.stop()
    return 0


def _cluster_status(args) -> int:
    from pathlib import Path

    from repro.persist import recover
    from repro.persist.recovery import WAL_DIR

    start = time.perf_counter()
    result = recover(args.data_dir)
    elapsed = time.perf_counter() - start
    wal_dir = Path(args.data_dir) / WAL_DIR
    segments = sorted(wal_dir.glob("wal-*.log")) if wal_dir.is_dir() else []
    wal_bytes = sum(path.stat().st_size for path in segments)
    counter = result.counter
    print(
        f"{args.data_dir}: epoch {result.epoch} "
        f"(ops_applied={result.ops_applied}), n={counter.graph.n} "
        f"m={counter.graph.m}"
    )
    print(
        f"checkpoint: seq {result.checkpoint_seq} at epoch "
        f"{result.checkpoint_epoch} (chain of "
        f"{result.checkpoint_chain_length})"
    )
    print(
        f"wal: {len(segments)} segments, {wal_bytes} bytes; "
        f"{result.records_replayed} records past the checkpoint "
        f"({result.ops_replayed} ops, {result.records_skipped} skipped, "
        f"{result.rebuilds} rebuilds, {result.torn_bytes_dropped} torn "
        "bytes)"
    )
    print(
        f"a replica bootstrapping now recovers in {elapsed * 1e3:.1f} ms "
        f"and tails from seq {result.last_seq}"
    )
    return 0


def _cmd_recover(args) -> int:
    from repro.core.csc import CSCIndex
    from repro.persist import recover

    if args.dead_letter:
        return _recover_dead_letter(args)
    start = time.perf_counter()
    result = recover(args.data_dir)
    elapsed = time.perf_counter() - start
    counter = result.counter
    print(
        f"recovered n={counter.graph.n} m={counter.graph.m} at epoch "
        f"{result.epoch} (ops_applied={result.ops_applied}) in "
        f"{elapsed * 1e3:.1f} ms: checkpoint seq {result.checkpoint_seq} "
        f"(chain of {result.checkpoint_chain_length}) + "
        f"{result.records_replayed} WAL records replayed "
        f"({result.ops_replayed} ops, {result.records_skipped} skipped, "
        f"{result.rebuilds} rebuilds, {result.torn_bytes_dropped} torn "
        "bytes dropped)"
    )
    if args.verify:
        fresh = CSCIndex.build(counter.graph, counter.index.order)
        mismatches = sum(
            1 for v in range(counter.graph.n)
            if counter.index.sccnt(v) != fresh.sccnt(v)
        )
        if mismatches:
            print(
                f"VERIFY FAILED: {mismatches}/{counter.graph.n} vertex "
                "counts diverge from a from-scratch rebuild",
                file=sys.stderr,
            )
            return 1
        print(
            f"verify: all {counter.graph.n} vertex counts match a "
            "from-scratch rebuild"
        )
    if args.out:
        counter.save(args.out)
        print(f"saved recovered index -> {args.out}")
    return 0


def _recover_dead_letter(args) -> int:
    """Inspect (and optionally drain) a data dir's dead-letter log of
    quarantined poison batches."""
    from pathlib import Path

    from repro.persist.deadletter import (
        DEADLETTER_FILE,
        read_dead_letters,
    )

    path = Path(args.data_dir) / DEADLETTER_FILE
    letters = read_dead_letters(path)
    if not letters:
        print(f"no dead letters in {args.data_dir}")
    else:
        rows = [
            [
                letter.seq,
                len(letter.ops),
                letter.on_invalid,
                " ".join(
                    f"{op[0]}({op[1]},{op[2]})" for op in letter.ops[:4]
                ) + (" ..." if len(letter.ops) > 4 else ""),
                letter.error,
            ]
            for letter in letters
        ]
        print(format_table(
            ["seq", "ops", "policy", "batch", "error"],
            rows,
            title=f"{len(letters)} quarantined batches in {path}",
        ))
    if args.drain and path.exists():
        path.unlink()
        print(f"drained: removed {path}")
    return 0


def _cmd_datasets(_args) -> int:
    rows = []
    for name in DATASET_ORDER:
        spec = DATASETS[name]
        paper_n, paper_m = PAPER_SIZES[name]
        small_n, small_m = spec.sizes["small"]
        rows.append(
            [name, spec.paper_name, spec.family,
             f"{paper_n:,}/{paper_m:,}", f"{small_n:,}/{small_m:,}"]
        )
    print(
        format_table(
            ["id", "paper graph", "family", "paper n/m", "stand-in n/m"],
            rows,
        )
    )
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments import EXPERIMENTS

    ids = args.ids or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment ids {unknown}; available: "
            f"{sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    for exp_id in ids:
        runner = EXPERIMENTS[exp_id]
        try:
            result = runner(profile=args.exp_profile)  # type: ignore[call-arg]
        except TypeError:
            result = runner()
        print(result.render())
        print()
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis.runner import RULES, analyze

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}  {desc}")
        return 0
    report = analyze(args.paths or None, suppressions=args.suppressions)
    print(report.to_json() if args.fmt == "json" else report.to_text())
    return report.exit_code


_COMMANDS = {
    "stats": _cmd_stats,
    "build": _cmd_build,
    "query": _cmd_query,
    "profile": _cmd_profile,
    "batch-update": _cmd_batch_update,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "recover": _cmd_recover,
    "datasets": _cmd_datasets,
    "experiments": _cmd_experiments,
    "analyze": _cmd_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Operational failures — a failed serving engine, an invalid
    configuration, an unrecoverable data dir, backpressure or read-only
    write rejection — exit with status 1 and a one-line message instead
    of a raw traceback; genuine bugs still surface as tracebacks.
    """
    from repro.errors import (
        BackpressureError,
        ClusterError,
        ConfigurationError,
        PersistenceError,
        ServiceStoppedError,
    )

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        BackpressureError,
        ClusterError,
        ConfigurationError,
        PersistenceError,
        ServiceStoppedError,
    ) as exc:
        # ServiceStoppedError covers ServiceFailedError and
        # EngineReadOnlyError (read-only write rejection) too.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
