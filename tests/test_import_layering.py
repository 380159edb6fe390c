"""Every ``repro`` module imports cleanly as the first module of a fresh
interpreter.

A circular import only fails for some entry points: the module imported
first decides which half-initialised module the cycle meets.  In-process
imports share ``sys.modules`` and hide that, so each module is imported
in its own subprocess.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _modules() -> list[str]:
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        elif parts[-1] == "__main__":
            continue  # runs the CLI when imported
        names.append(".".join(parts))
    return names


def _import_alone(module: str) -> tuple[str, int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return module, proc.returncode, proc.stderr


def test_module_list_covers_the_layers():
    names = set(_modules())
    assert {"repro", "repro.graph.subgraph", "repro.baselines.hpspc_scc",
            "repro.core.maintenance", "repro.build",
            "repro.persist.recovery", "repro.cluster"} <= names


def test_every_module_imports_in_a_fresh_interpreter():
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_import_alone, _modules()))
    failed = {m: err.strip().splitlines()[-1:] for m, rc, err in results
              if rc != 0}
    assert not failed, failed
