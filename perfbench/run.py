"""Benchmark entry point.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0

Runs one workload (``screen`` or ``churn``, see ``workloads.py``) for one
seed from the root of a source checkout, checks the answers, and prints
one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones.  It exits
non-zero, printing no result, when the checkout has no ``src/repro`` or
a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Imported again as __mp_main__ by the replica processes: keep this
# module free of work at import time.
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("screen", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink graphs and rounds (smoke tests)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from bench import GateError, Run, stop_helpers

    # Everything the run writes stays in the checkout, temp files
    # included (the forkserver's socket).  The path is relative to the
    # checkout root so the socket path stays short.
    os.chdir(ROOT)
    out_dir = ROOT / ".perfbench"
    tmp = Path(".perfbench", "tmp")
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = os.environ["TMPDIR"] = str(tmp)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              out_dir / f"data-{args.workload}-{args.seed}", args.tiny)
    # A SIGTERM unwinds like an error, so every process the run started
    # is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        metrics = run.execute()
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}",
              file=sys.stderr)
        return 1
    finally:
        stop_helpers()
    print(f"perfbench: {json.dumps(run.summary())}", file=sys.stderr)
    run.write_samples(out_dir / f"samples-{args.workload}-{args.seed}"
                      f"-trace{args.trace}.json")
    c = run.counts
    result = {
        "correct": True,
        "attempted": c.ops_attempted + c.rpc_attempted + c.local_queries
        + c.sweeps,
        "failed": c.ops_rejected + c.rpc_failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
