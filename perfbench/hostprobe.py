"""Host-speed probe, CPU pinning and per-process accounting.

The benchmark host switches each vCPU between two speed states about
1.5x apart, each lasting 0.5-5 s, independently per vCPU.  A raw
wall-clock sample therefore says as much about the state the CPU was in
as about the code.  This module measures the speed: a fixed pure-Python
BFS (the same kind of work the system under test does) is timed on
each CPU while the system is idle, and timings are rescaled to what
they would have been at the reference speed :data:`REF_PROBE_MS`.

It deliberately imports nothing from ``repro``: a change to the system
under test cannot change the ruler it is measured with.

Run as a script (``python3 hostprobe.py --serve``) it is the helper
process that probes the replica's CPU: it reads ``probe <reps>`` lines
on stdin and answers each with the median probe time in milliseconds.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: The reference speed, as a probe reading (ms): samples are rescaled
#: to what they would take where the probe reads this.  It sits a
#: little below the fast state of the 2-vCPU benchmark host, where
#: readings had deciles of 1.7-3.1 ms.
REF_PROBE_MS = 1.5

#: Probe graph: vertices and out-degree of the fixed pseudo-random graph.
_PROBE_N = 6000
_PROBE_DEGREE = 4
#: a BFS run is timed in slices of this many visited vertices
_SLICE = 375


def _probe_graph(n: int = _PROBE_N, degree: int = _PROBE_DEGREE):
    """A fixed pseudo-random adjacency list (64-bit LCG, seed fixed)."""
    x = 12345
    adj = []
    for _ in range(n):
        row = []
        for _ in range(degree):
            x = (x * 6364136223846793005 + 1442695040888963407) & (
                (1 << 64) - 1
            )
            row.append((x >> 33) % n)
        adj.append(row)
    return adj


class Probe:
    """Times a fixed BFS in this process (on whatever CPU it is pinned
    to).  Every reading is kept in :attr:`readings` (ms); alongside it
    :attr:`steady` keeps the run time implied by the median slice,
    which a preemption by another process, a few slices long, does not
    move.  Sub-microsecond calls are mostly not preempted either, so
    their latencies are rescaled by :attr:`steady`; longer samples
    absorb preemptions as the run time does."""

    def __init__(self) -> None:
        self._adj = _probe_graph()
        self.readings: list[float] = []
        self.steady: list[float] = []

    def _once(self, slices: list[float]) -> float:
        adj = self._adj
        clock = time.perf_counter
        start = mark = clock()
        dist = [-1] * len(adj)
        dist[0] = 0
        frontier = [0]
        for i, v in enumerate(frontier, 1):
            dv = dist[v] + 1
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv
                    frontier.append(w)
            if i % _SLICE == 0:
                now = clock()
                slices.append(now - mark)
                mark = now
        run = clock() - start
        return run * 1e3

    def __call__(self, reps: int = 3) -> float:
        """One reading: the median of ``reps`` timed runs after one
        untimed run that brings the CPU and caches out of idle."""
        self._once([])
        slices: list[float] = []
        ms = statistics.median(self._once(slices) for _ in range(reps))
        self.readings.append(ms)
        per_run = len(slices) / reps
        self.steady.append(statistics.median(slices) * per_run * 1e3)
        return ms


class RemoteProbe:
    """The same probe, run by a helper process pinned to ``cpu`` (the
    replica's CPU).  Call it only while the replica is idle."""

    def __init__(self, cpu: int) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.readings: list[float] = []
        try:
            pin(self._proc.pid, cpu)
            self(1)  # wait until the helper has built its graph
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        self.readings.clear()

    def __call__(self, reps: int = 3) -> float:
        self._proc.stdin.write(f"probe {reps}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-probe helper exited")
        ms = float(line)
        self.readings.append(ms)
        return ms

    def close(self) -> None:
        """Stop the helper and wait until it has exited."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def rescale(raw: float, probe_ms: float) -> float:
    """``raw``, measured while the probe took ``probe_ms``, rescaled to
    what it would have been at the reference speed."""
    return raw * REF_PROBE_MS / probe_ms


# ----------------------------------------------------------------------
# Pinning and /proc accounting (Linux)
# ----------------------------------------------------------------------
def cpu_pair() -> tuple[int, int]:
    """``(client_cpu, replica_cpu)``: the first two CPUs this process
    may run on (the same CPU twice on a one-CPU host)."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[1] if len(cpus) > 1 else cpus[0]


def pin(pid: int, cpu: int) -> None:
    """Pin process or thread ``pid`` (0 = calling thread) to ``cpu``."""
    os.sched_setaffinity(pid, {cpu})


def pin_all_threads(cpu: int) -> None:
    """Pin every thread of this process to ``cpu`` (threads created
    later inherit the affinity of the thread that creates them)."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # thread exited meanwhile
            pass


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time consumed by process ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is field 3 (state); utime and stime are fields 14, 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _serve() -> None:
    probe = Probe()
    for line in sys.stdin:
        cmd, reps = line.split()
        if cmd != "probe":
            raise SystemExit(f"unknown command {cmd!r}")
        sys.stdout.write(f"{probe(int(reps))!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        raise SystemExit("usage: hostprobe.py --serve")
    _serve()
