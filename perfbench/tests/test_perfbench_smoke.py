"""Tiny-size smoke runs of both workloads, end to end and traced: each
must pass its correctness gate and print every metric that
BENCHMARK.json names, with the unit it declares, and leave no process
behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _survivors(mark: str) -> list[str]:
    """Command lines of live processes whose environment holds ``mark``
    (every process a run starts inherits the run's environment)."""
    found = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            if mark.encode() in (proc / "environ").read_bytes():
                found.append((proc / "cmdline").read_bytes()
                             .replace(b"\0", b" ").decode()[:200])
        except OSError:  # exited meanwhile, or not ours
            pass
    return found


def _run(workload: str, trace: int) -> dict:
    # A child process: the benchmark pins its threads to CPUs.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    mark = uuid.uuid4().hex
    env["PERFBENCH_SMOKE_MARK"] = mark
    # Output goes to files, not pipes: reading a pipe to its end would
    # also wait for any process that inherited it and outlives the run.
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--tiny"],
            cwd=ROOT, stdout=out, stderr=err, timeout=240, env=env,
        )
        # The run has stopped and waited for every process it started.
        survivors = _survivors(f"PERFBENCH_SMOKE_MARK={mark}")
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    assert proc.returncode == 0, stderr[-3000:]
    assert survivors == []
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in
                                      MANIFEST["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_checkout_without_sources_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
