"""One benchmark run: one workload, one seed, one client process.

A durable primary with one replica (``repro.cluster.Cluster``) serves
the workload's rounds through the public API.  The client thread and
the engine's writer thread run on one CPU, the replica process on the
other.  The host-speed probe (:mod:`hostprobe`) is read on both CPUs
between the timed phases, while the system is idle, and every timed
sample is rescaled to the reference speed by the mean of the readings
just before and just after it on the CPU that did the work (both CPUs
for routed queries).  Restart replay, too long for one speed state, is
timed in pieces (:class:`PiecewiseClock`).

Correctness is checked before anything is reported: a failed check
raises :class:`GateError` and the run prints no metrics.
"""

from __future__ import annotations

import gc
import json
import multiprocessing.forkserver
import queue
import random
import resource
import shutil
import statistics
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import hostprobe
from stats import covered, percentile, self_time
from tracing import Tracer
from workloads import MAKERS, Inputs

from repro import ServeEngine, ShortestCycleCounter, bfs_cycle_count
from repro.cluster import Cluster
from repro.errors import (
    BackpressureError,
    EngineReadOnlyError,
    NoReplicaAvailableError,
    ReplicaUnavailableError,
)
from repro.service import DurabilityConfig, ServeConfig

#: set-ups per run; ``setup_s`` is their median
SETUPS = 5
#: accounts checked against the BFS oracle on the final graph
GATE_SAMPLES = 40
#: probe repetitions per reading (the reading is their median)
PROBE_REPS = 3
#: restart replay is cut into pieces of at least this long
PIECE_S = 0.1
#: a stalled replica fails the run after this long
REPLICA_WAIT_S = 60.0
#: ``Tracer.round`` while the restarted engine recovers
RESTART_ROUND = -1

RPC_ERRORS = (ReplicaUnavailableError, NoReplicaAvailableError)


class GateError(Exception):
    """A correctness check failed; the run reports no numbers."""


def stop_helpers() -> None:
    """Stop the forkserver and the resource tracker that
    :meth:`Run.execute` starts, and wait for both to exit.  Left alone
    they outlive this process until they notice it has gone."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


@dataclass
class Counts:
    ops_attempted: int = 0
    ops_acknowledged: int = 0
    ops_rejected: int = 0
    rpc_attempted: int = 0
    rpc_failed: int = 0
    local_queries: int = 0
    sweeps: int = 0


class Series:
    """Samples of one quantity: each raw value with the probe reading
    (ms) it is rescaled by."""

    def __init__(self) -> None:
        self.raw = array("d")
        self.probe_ms = array("d")

    def add(self, raw: float, probe_ms: float) -> None:
        self.raw.append(raw)
        self.probe_ms.append(probe_ms)

    def scaled(self) -> list[float]:
        return [hostprobe.rescale(r, p)
                for r, p in zip(self.raw, self.probe_ms)]


class PiecewiseClock:
    """Times recovery replay in pieces: after a replayed batch, once
    :data:`PIECE_S` has passed, it reads the probe (outside the timed
    total) and closes a piece, so every piece is rescaled by the
    readings on both sides of it, like a short sample.  Works by
    wrapping ``ShortestCycleCounter.apply_batch`` while active."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.pieces = Series()

    def _cut(self) -> None:
        elapsed = time.perf_counter() - self._start
        reading = self.probe(PROBE_REPS)
        self.pieces.add(elapsed, (self._last + reading) / 2.0)
        self._last = reading
        self._start = time.perf_counter()

    def __enter__(self) -> PiecewiseClock:
        inner = self._saved = ShortestCycleCounter.__dict__["apply_batch"]

        def replay(counter, *args, **kwargs):
            result = inner(counter, *args, **kwargs)
            if time.perf_counter() - self._start >= PIECE_S:
                self._cut()
            return result

        ShortestCycleCounter.apply_batch = replay
        self._last = self.probe(PROBE_REPS)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._cut()
        ShortestCycleCounter.apply_batch = self._saved


@dataclass
class RoundSample:
    """Raw wall-clock seconds of one round's timed phases."""

    r: int
    traced: bool
    t0: float
    t1: float
    stall: float
    tail: float
    sweep: float
    #: visible + local queries + sweep at the reference speed (the
    #: trace-overhead comparison)
    busy: float = 0.0

    @property
    def visible(self) -> float:
        return self.t1 - self.t0


class StallReader(threading.Thread):
    """The routed reader that runs only during writes: from each
    round's submit until the replica reports the new epoch it
    alternates a routed ``sccnt`` and a ``status`` poll, and reports
    the longest single RPC."""

    NAME = "perfbench-stall-reader"

    def __init__(self, router, client, n: int, seed: int) -> None:
        super().__init__(name=self.NAME, daemon=True)
        self._router = router
        self._client = client
        self._n = n
        self._rng = random.Random(seed ^ 0x5EED)
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()

    def begin(self, target_epoch: int) -> None:
        self._jobs.put(target_epoch)

    def result(self):
        """``(longest_rpc_s, t_replica_visible, rpcs, failures, error)``."""
        return self._done.get(timeout=REPLICA_WAIT_S + 10)

    def close(self) -> None:
        self._jobs.put(None)
        self.join(10)

    def run(self) -> None:
        clock = time.perf_counter
        while True:
            target = self._jobs.get()
            if target is None:
                return
            worst, rpcs, failures, error, seen = 0.0, 0, 0, None, None
            deadline = clock() + REPLICA_WAIT_S
            try:
                while seen is None:
                    v = self._rng.randrange(self._n)
                    rpcs += 1
                    t = clock()
                    self._router.sccnt(v)
                    worst = max(worst, clock() - t)
                    rpcs += 1
                    t = clock()
                    epoch = self._client.status()["epoch"]
                    now = clock()
                    worst = max(worst, now - t)
                    if epoch >= target:
                        seen = now
                    elif now > deadline:
                        raise TimeoutError(
                            f"replica stuck below epoch {target}"
                        )
            except RPC_ERRORS as exc:
                failures += 1
                error = f"stall reader: {exc!r}"
            except Exception as exc:  # noqa: BLE001 - reported by the gate
                error = f"stall reader: {exc!r}"
            self._done.put((worst, seen, rpcs, failures, error))


def _config(data_dir: Path) -> ServeConfig:
    return ServeConfig(
        durability=DurabilityConfig(
            data_dir=str(data_dir),
            wal_fsync="always",
            checkpoint_on_stop=False,
        ),
    )


class Run:
    """State of one run; :meth:`execute` returns the metrics dict."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, workdir: Path, tiny: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.inputs: Inputs = MAKERS[workload](seed, seconds, tiny)
        self.counts = Counts()
        self.tracer = Tracer() if trace else None
        self.gate_failures: list[str] = []
        #: raw seconds of each set-up part, one dict per set-up
        self.setups: list[dict[str, float]] = []
        #: each set-up's parts, rescaled one by one
        self.setup_parts: list[Series] = []
        self.rounds: list[RoundSample] = []
        #: samples keyed "plain."/"traced." + kind (seconds; the query
        #: latencies in us)
        self.series: dict[str, Series] = {}
        self.bulk_cold: list[float] = []
        self.bulk_warm: list[float] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.gate_failures.append(what)

    def _sample(self, key: str) -> Series:
        if key not in self.series:
            self.series[key] = Series()
        return self.series[key]

    # ------------------------------------------------------------------
    def execute(self) -> dict:
        client_cpu, replica_cpu = hostprobe.cpu_pair()
        # The forkserver, and so every replica forked from it, inherits
        # the replica CPU; the client and its threads stay on the other.
        hostprobe.pin(0, replica_cpu)
        multiprocessing.forkserver.ensure_running()
        hostprobe.pin(0, client_cpu)
        self.client_cpu, self.replica_cpu = client_cpu, replica_cpu
        self.client_probe = hostprobe.Probe()
        self.replica_probe = hostprobe.RemoteProbe(replica_cpu)
        if self.tracer is not None:
            self.tracer.install()
        cluster = None
        try:
            for i in range(SETUPS):
                if cluster is not None:
                    cluster.stop()
                    cluster = None
                    gc.collect()
                cluster = self._setup(i)
            started = time.perf_counter()
            self._measure(cluster)
            self.measure_s = time.perf_counter() - started
            self._restart(cluster)
            cluster = None
        finally:
            if cluster is not None:
                cluster.stop()
            if self.tracer is not None:
                self.tracer.remove()
                self.tracer.write(
                    self.workdir.parent
                    / f"spans-{self.workload}-{self.seed}.jsonl"
                )
            self.replica_probe.close()
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.check(self.stats.ops_skipped == 0,
                   f"{self.stats.ops_skipped} generated ops were skipped "
                   "as infeasible")
        if self.gate_failures:
            raise GateError("; ".join(self.gate_failures[:5]))
        return self._layers() if self.trace else self._end_to_end("plain")

    # ------------------------------------------------------------------
    def _setup(self, i: int) -> Cluster:
        """One timed set-up: build, bootstrap checkpoint, replica spawn
        and recovery, warm-up."""
        clock = time.perf_counter
        inputs = self.inputs
        data_dir = self.workdir / f"setup-{i}"
        shutil.rmtree(data_dir, ignore_errors=True)
        rss0 = hostprobe.rss_bytes()
        cp, rp = self.client_probe, self.replica_probe
        parts: dict[str, float] = {}
        c0, r0 = cp(PROBE_REPS), rp(PROBE_REPS)

        t = clock()
        counter = ShortestCycleCounter.build(inputs.graph)
        parts["build"] = clock() - t
        self.entries0 = counter.index.total_entries()
        c1 = cp(PROBE_REPS)

        t = clock()
        cluster = Cluster(counter, _config(data_dir), replicas=1,
                          record_digests=False)
        parts["bootstrap"] = clock() - t

        t = clock()
        cluster.start()
        parts["start"] = clock() - t
        c2 = cp(PROBE_REPS)

        replica = cluster.router.live()[0]
        t = clock()
        status = replica.status()
        parts["ready"] = clock() - t
        r1 = rp(PROBE_REPS)
        self.check(status["epoch"] == 0,
                   f"replica started at epoch {status['epoch']}, not 0")
        self.replica_pid = status["pid"]
        hostprobe.pin(self.replica_pid, self.replica_cpu)
        hostprobe.pin_all_threads(self.client_cpu)

        t = clock()
        snap = cluster.engine.snapshot()
        for v in range(inputs.graph.n):
            snap.sccnt(v)
        snap.sccnt_many(inputs.watchlist)
        router = cluster.router
        for v in range(inputs.graph.n):
            router.sccnt(v)
        parts["warmup"] = clock() - t
        c3, r2 = cp(PROBE_REPS), rp(PROBE_REPS)

        self.setups.append(parts)
        scaled = Series()
        for raw, before, after in (
            (parts["build"], c0, c1),
            (parts["bootstrap"] + parts["start"], c1, c2),
            (parts["ready"], r0, r1),
            (parts["warmup"], (c2 + r1) / 2, (c3 + r2) / 2),
        ):
            scaled.add(raw, (before + after) / 2.0)
        self.setup_parts.append(scaled)
        if i == 0:
            self.resident_b_per_entry = (
                (hostprobe.rss_bytes() - rss0) / self.entries0)
        if inputs.hub is not None:
            count = snap.sccnt(inputs.hub).count
            self.check(count == inputs.rings,
                       f"epoch 0: SCCnt(hub) = {count}, expected "
                       f"{inputs.rings}")
        return cluster

    # ------------------------------------------------------------------
    def _measure(self, cluster: Cluster) -> None:
        clock, ns = time.perf_counter, time.perf_counter_ns
        inputs, counts, tracer = self.inputs, self.counts, self.tracer
        engine, router = cluster.engine, cluster.router
        replica = router.live()[0]
        reader = StallReader(router, replica, inputs.graph.n, self.seed)
        reader.start()
        epoch = engine.snapshot().epoch
        idle_cpu = idle_wall = 0.0
        cp, rp = self.client_probe, self.replica_probe
        # Readings at the end of one round open the next: nothing runs
        # in between.
        c_prev, r_prev = cp(PROBE_REPS), rp(PROBE_REPS)
        try:
            for r, ops in enumerate(inputs.rounds):
                traced = tracer is not None and r % 2 == 1
                if tracer is not None:
                    tracer.round = r if traced else None
                    if traced:
                        tracer.install()
                    else:
                        tracer.remove()
                tag = "traced" if traced else "plain"
                routed_q, local_q = inputs.queries(r)

                # -- write: submit -> flush, stall reader alongside --
                t0 = clock()
                for op in ops:
                    counts.ops_attempted += 1
                    try:
                        engine.submit(*op)
                        counts.ops_acknowledged += 1
                    except (BackpressureError, EngineReadOnlyError):
                        counts.ops_rejected += 1
                reader.begin(epoch + 1)
                snap = cluster.flush()
                t1 = clock()
                worst, seen, rpcs, fails, error = reader.result()
                counts.rpc_attempted += rpcs
                counts.rpc_failed += fails
                if error is not None:
                    raise GateError(error)
                c1, r1 = cp(PROBE_REPS), rp(PROBE_REPS)
                self.check(snap.epoch == epoch + 1,
                           f"round {r} published epoch {snap.epoch} "
                           f"after {epoch}")
                epoch = snap.epoch
                visible = t1 - t0
                self._sample(f"{tag}.visible").add(
                    visible, (c_prev + c1) / 2.0)
                self._sample(f"{tag}.stall").add(worst, (r_prev + r1) / 2.0)

                # -- routed reads, replica idle --
                answers = []
                lat = array("d")
                for v in routed_q:
                    counts.rpc_attempted += 1
                    t = ns()
                    try:
                        answers.append(router.sccnt(v))
                    except RPC_ERRORS as exc:
                        counts.rpc_failed += 1
                        raise GateError(f"routed sccnt failed: {exc!r}")
                    lat.append(ns() - t)
                c2, r2 = cp(PROBE_REPS), rp(PROBE_REPS)
                routed = self._sample(f"{tag}.routed")
                both = (c1 + c2 + r1 + r2) / 4.0
                for x in lat:
                    routed.add(x / 1e3, both)

                # -- local reads and the watchlist sweep, replica idle --
                cpu0, w0 = hostprobe.cpu_seconds(self.replica_pid), clock()
                lat = array("d")
                for v in local_q:
                    t = ns()
                    snap.sccnt(v)
                    lat.append(ns() - t)
                counts.local_queries += len(local_q)
                local_s = sum(lat) / 1e9
                t = clock()
                snap.sccnt_many(inputs.watchlist)
                sweep = clock() - t
                counts.sweeps += 1
                idle_cpu += hostprobe.cpu_seconds(self.replica_pid) - cpu0
                idle_wall += clock() - w0
                c3 = cp(PROBE_REPS)
                local = self._sample(f"{tag}.local")
                steady = (cp.steady[-2] + cp.steady[-1]) / 2.0
                for x in lat:
                    local.add(x / 1e3, steady)
                self._sample(f"{tag}.sweep").add(sweep, (c2 + c3) / 2.0)
                if traced:
                    t = clock()
                    snap.sccnt_many(inputs.watchlist)
                    self.bulk_warm.append(clock() - t)
                    self.bulk_cold.append(sweep)
                self.rounds.append(RoundSample(
                    r, traced, t0, t1, worst, seen - t1, sweep,
                    busy=hostprobe.rescale(visible, (c_prev + c1) / 2)
                    + hostprobe.rescale(local_s + sweep, (c2 + c3) / 2),
                ))
                c_prev, r_prev = c3, r2
                for v, a in zip(routed_q, answers):
                    local = snap.sccnt(v)
                    self.check(local == a, f"round {r}: routed SCCnt({v}) "
                               f"= {a} != local {local}")
        finally:
            if tracer is not None:
                tracer.round = None
                tracer.install()
            reader.close()
        self.idle_cpu_pct = 100.0 * idle_cpu / idle_wall
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self.replica_rss_mb = hostprobe.peak_rss_mb(self.replica_pid)
        self.failovers = router.failovers
        self.durability = engine.durability_stats()
        self.stats = engine.stats()
        self.update_log = engine.counter.update_log
        self.index_bytes = engine.counter.index.size_bytes()
        self.label_entries = engine.counter.index.total_entries()
        self._check_oracle(engine.snapshot(), engine.counter.graph)

    def _check_oracle(self, snap, graph) -> None:
        """Sampled answers of the final epoch against the BFS oracle."""
        rng = random.Random(self.seed ^ 0xC0FFEE)
        sample = rng.sample(range(graph.n), min(GATE_SAMPLES, graph.n))
        if self.inputs.hub is not None:
            sample.append(self.inputs.hub)
        for v in sample:
            got, want = snap.sccnt(v), bfs_cycle_count(graph, v)
            self.check(got == want, f"final SCCnt({v}) = {got}, BFS "
                       f"oracle {want}")

    # ------------------------------------------------------------------
    def _restart(self, cluster: Cluster) -> None:
        config = cluster.engine.config
        cluster.stop()
        primary = cluster.engine.counter.to_bytes()
        del cluster
        self.restarts: list[Series] = []
        for i in range(self.inputs.shape.restarts):
            # Each restart starts with only the benchmark's own objects
            # alive, so it does not pay for collecting its predecessor.
            gc.collect()
            # Per-layer restart numbers come from the first restart.
            if self.tracer is not None:
                self.tracer.round = RESTART_ROUND if i == 0 else None
            with PiecewiseClock(self.client_probe) as restart:
                engine = ServeEngine(None, config).start()
            self.restarts.append(restart.pieces)
            try:
                self.check(engine.counter.to_bytes() == primary,
                           "restarted engine's to_bytes() differs from "
                           "the stopped primary's")
                self.records_replayed = engine.recovery.records_replayed
                self.replay_rebuilds = sum(
                    int(getattr(rec, "rebuilt", False))
                    for rec in engine.counter.update_log
                )
            finally:
                engine.stop()
            del engine
        if self.tracer is not None:
            self.tracer.round = None

    # ------------------------------------------------------------------
    def _end_to_end(self, tag: str, raw: bool = False) -> dict:
        """The ten end-to-end metrics from the ``tag`` rounds, rescaled
        to the reference speed (or as measured, with ``raw``)."""

        def values(series: Series) -> list[float]:
            return list(series.raw) if raw else series.scaled()

        def p50(kind: str, scale: float = 1.0) -> float:
            return percentile(values(self.series[f"{tag}.{kind}"]),
                              50) * scale

        local = values(self.series[f"{tag}.local"])
        visible = values(self.series[f"{tag}.visible"])
        setup = statistics.median(
            sum(values(parts)) for parts in self.setup_parts)
        out = {
            "setup_s": (setup, "s"),
            "query_us_p50": (percentile(local, 50), "us"),
            "query_us_p99": (percentile(local, 99), "us"),
            "sweep_ms_p50": (p50("sweep", 1e3), "ms"),
            "visible_ms_p50": (percentile(visible, 50) * 1e3, "ms"),
            "write_ops_per_s": (
                len(self.inputs.rounds[0]) * len(visible) / sum(visible),
                "1/s"),
            "routed_query_us_p50": (p50("routed"), "us"),
            "routed_stall_ms_p50": (p50("stall", 1e3), "ms"),
            "restart_s": (statistics.median(
                sum(values(pieces)) for pieces in self.restarts), "s"),
        }
        if not raw:
            out["peak_rss_mb"] = (self.peak_rss_mb, "MB")
        return out

    def _layers(self) -> dict:
        """Per-layer metrics of a traced run (raw wall-clock: compare
        them with the ``raw.*`` end-to-end values)."""
        tracer = self.tracer
        traced = {s.r for s in self.rounds if s.traced}
        out: dict[str, tuple[float, str]] = {}

        def p50(values, scale=1.0):
            return percentile(values, 50) * scale if values else 0.0

        def durations(name, rounds=traced):
            return [s.duration for s in tracer.named(name, rounds)]

        def setup_part(name):
            return statistics.median(p[name] for p in self.setups)

        # -- service --
        out["service.submit_us_p50"] = (
            p50(durations("service.submit"), 1e6), "us")
        pickups = []
        for r in sorted(traced):
            submits = [s.end for s in tracer.named("service.submit", {r})]
            wal = [s.start
                   for s in tracer.named("persist.wal_append", {r})]
            if submits and wal:
                pickups.append(min(wal) - max(submits))
        out["service.pickup_ms_p50"] = (p50(pickups, 1e3), "ms")
        out["service.publish_ms_p50"] = (
            p50(durations("service.publish"), 1e3), "ms")
        out["service.start_s"] = (setup_part("start"), "s")
        out["service.warmup_s"] = (setup_part("warmup"), "s")

        # -- csc and labeling --
        rebuilds = sum(int(getattr(rec, "rebuilt", False))
                       for rec in self.update_log)
        out["csc.build_s"] = (setup_part("build"), "s")
        out["csc.builds"] = (
            SETUPS + rebuilds + self.replay_rebuilds, "count")
        out["csc.entries_per_s"] = (
            self.entries0 / setup_part("build"), "1/s")
        out["csc.label_entries"] = (self.label_entries, "count")
        out["labeling.packed_mb"] = (self.index_bytes / 2**20, "MB")
        out["labeling.resident_b_per_entry"] = (
            self.resident_b_per_entry, "B")

        # -- bulk --
        out["bulk.cold_ms_p50"] = (p50(self.bulk_cold, 1e3), "ms")
        out["bulk.warm_ms_p50"] = (p50(self.bulk_warm, 1e3), "ms")

        # -- batch --
        out["batch.apply_ms_p50"] = (
            p50(durations("batch.apply"), 1e3), "ms")
        for phase in ("discovery", "repair", "rebuild"):
            out[f"batch.{phase}_ms_sum"] = (
                1e3 * sum(rec.details.get(f"{phase}_wall_s", 0.0)
                          for rec in self.update_log
                          if hasattr(rec, "details")),
                "ms")
        out["batch.rebuilds"] = (rebuilds, "count")
        out["batch.repair_bfs"] = (
            sum(getattr(rec, "repair_bfs_count", 0)
                for rec in self.update_log), "count")

        # -- persist --
        out["persist.wal_append_ms_p50"] = (
            p50(durations("persist.wal_append"), 1e3), "ms")
        out["persist.wal_bytes"] = (self.durability.wal_bytes, "B")
        out["persist.wal_records"] = (self.durability.wal_records, "count")
        out["persist.checkpoint_s"] = (
            statistics.median(durations("persist.checkpoint", {None})),
            "s")
        out["persist.checkpoint_mb"] = (
            self.durability.checkpoint_bytes / 2**20, "MB")
        out["persist.recover_load_s"] = (
            sum(durations("persist.materialize", {RESTART_ROUND})), "s")
        out["persist.recover_replay_s"] = (
            sum(durations("batch.apply", {RESTART_ROUND})), "s")
        out["persist.records_replayed"] = (self.records_replayed, "count")
        out["persist.replay_rebuilds"] = (self.replay_rebuilds, "count")

        # -- cluster: the client RPC is the child of the router call;
        # the router's own share is the route span's self time --
        out["cluster.bootstrap_s"] = (setup_part("ready"), "s")

        def client_thread(name):
            return [(i, s) for i, s in enumerate(tracer.spans)
                    if s.name == name and s.round in traced
                    and s.thread == "MainThread" and s.end]

        rpc = client_thread("cluster.rpc_sccnt")
        by_parent: dict[int, list[tuple[float, float]]] = {}
        for _, s in rpc:
            by_parent.setdefault(s.parent, []).append((s.start, s.end))
        out["cluster.rpc_us_p50"] = (
            p50([s.duration for _, s in rpc], 1e6), "us")
        out["cluster.route_us_p50"] = (p50([
            self_time(s.start, s.end, by_parent.get(i, []))
            for i, s in client_thread("cluster.route_sccnt")], 1e6), "us")
        out["cluster.tail_ms_p50"] = (
            p50([s.tail for s in self.rounds], 1e3), "ms")
        out["cluster.replica_rss_mb"] = (self.replica_rss_mb, "MB")
        out["cluster.replica_idle_cpu_pct"] = (self.idle_cpu_pct, "%")

        # -- host, raw values, tracing --
        out["host.client_probe_ms_p50"] = (
            p50(self.client_probe.readings), "ms")
        out["host.replica_probe_ms_p50"] = (
            p50(self.replica_probe.readings), "ms")
        for name, (value, unit) in self._end_to_end("plain",
                                                    raw=True).items():
            out[f"raw.{name}"] = (value, unit)
        busy = {t: statistics.median(s.busy for s in self.rounds
                                     if s.traced == t)
                for t in (True, False)}
        out["trace.overhead_pct"] = (
            100.0 * (busy[True] / busy[False] - 1.0), "%")
        unaccounted = []
        for s in self.rounds:
            if s.traced:
                spans = [(x.start, x.end) for x in tracer.spans
                         if x.round == s.r and x.parent is None and x.end
                         and x.thread != StallReader.NAME]
                unaccounted.append(s.visible - covered(spans, s.t0, s.t1))
        out["trace.visible_unaccounted_ms_p50"] = (
            p50(unaccounted, 1e3), "ms")

        # -- failures --
        c = self.counts
        out["ops.attempted"] = (c.ops_attempted, "count")
        out["ops.acknowledged"] = (c.ops_acknowledged, "count")
        out["ops.rejected"] = (c.ops_rejected, "count")
        out["rpc.attempted"] = (c.rpc_attempted, "count")
        out["rpc.failed"] = (c.rpc_failed, "count")
        out["router.failovers"] = (self.failovers, "count")
        return out

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """One line for people reading the log: rounds, probe quartiles
        per CPU, and the end-to-end metrics as measured."""
        def quartiles(xs):
            return [round(q, 3) for q in statistics.quantiles(xs, n=4)]

        return {
            "workload": self.workload, "seed": self.seed,
            "rounds": len(self.rounds),
            "measure_s": round(self.measure_s, 1),
            "client_probe_ms": quartiles(self.client_probe.readings),
            "replica_probe_ms": quartiles(self.replica_probe.readings),
            "raw": {k: round(v, 4) for k, (v, _) in
                    self._end_to_end("plain", raw=True).items()},
        }

    def write_samples(self, path: Path) -> None:
        """Dump the probe readings in order, the per-round samples and
        the set-up parts (raw seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "client_probe_ms": self.client_probe.readings,
            "replica_probe_ms": self.replica_probe.readings,
            "rounds": [vars(s) for s in self.rounds],
            "setups": self.setups,
            "samples": {k: {"raw": list(v.raw), "probe_ms": list(v.probe_ms)}
                        for k, v in self.series.items()
                        if not k.endswith(("local", "routed"))},
            "restart_s": [list(p.raw) for p in self.restarts],
        }))
