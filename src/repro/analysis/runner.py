"""The ``repro analyze`` driver: walk files, apply rules, diff against
the suppression file, render a report.

Rule applicability mirrors where each invariant lives when scanning the
repo's own source (``src/repro``): REP001 looks at ``service``/
``persist``, REP002 everywhere (with the ownership-protocol mode inside
``labelstore.py`` itself), REP003 everywhere (only the watched layout
names produce findings),
REP004's raise check everywhere with its swallow check scoped to
``persist``/``service``, REP005 at ``persist``.  Paths *outside* the
repro package — the fixture corpus under ``tests/analysis/fixtures``,
or anything passed explicitly — get every rule in strict mode, which is
what makes the fail-fixtures fail.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path
from collections.abc import Iterable, Sequence

from repro.analysis.findings import (
    Finding,
    Report,
    Suppression,
    load_suppressions,
)
from repro.analysis.layout import check_layout
from repro.analysis.lockorder import check_lock_order
from repro.analysis.rules import (
    check_error_taxonomy,
    check_io_seam,
    check_store_mutation,
)

__all__ = ["analyze", "analyze_paths", "default_root",
           "default_suppression_file", "RULES"]

#: Rule id -> one-line description (documentation + ``--list-rules``).
RULES: dict[str, str] = {
    "REP001": "lock-order: with-nesting must follow the canonical "
              "_dur_lock -> _lock order, acyclically",
    "REP002": "frozen-store mutation: packed-store state changes only "
              "through LabelStore's ownership protocol",
    "REP003": "bit-layout drift: every copy of the 23/17/24 packed "
              "layout folds to the declared spec",
    "REP004": "error taxonomy: raise repro.errors types; never swallow "
              "'except Exception' outside the fault classifier",
    "REP005": "I/O seam: durable writes in persist/ are announced via "
              "io_event before they execute",
}


def default_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    return Path(__file__).resolve().parent.parent


def default_suppression_file() -> Path:
    """``analysis-suppressions.txt`` at the repo root, when running
    from a checkout (``<root>/src/repro/analysis/runner.py``)."""
    return default_root().parent.parent / "analysis-suppressions.txt"


def _iter_py_files(paths: Iterable[Path]) -> Iterable[Path]:
    for p in paths:
        if p.is_dir():
            yield from sorted(
                f for f in p.rglob("*.py") if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            yield p


def _rel(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _check_file(path: Path, repo_root: Path | None) -> list[Finding]:
    """Run the applicable rules over one file."""
    rel_to_pkg: str | None = None
    if repo_root is not None:
        try:
            rel_to_pkg = path.resolve().relative_to(repo_root).as_posix()
        except ValueError:
            rel_to_pkg = None
    in_repo = rel_to_pkg is not None
    display = _rel(path, repo_root.parent.parent) if in_repo \
        else path.as_posix()

    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))

    parts = rel_to_pkg.split("/") if rel_to_pkg else []
    in_service = bool(parts) and parts[0] in ("service", "persist")
    in_persist = bool(parts) and parts[0] == "persist"
    is_labelstore = rel_to_pkg == "labeling/labelstore.py"
    in_analysis = bool(parts) and parts[0] == "analysis"

    findings: list[Finding] = []
    if not in_repo or in_service:
        findings += check_lock_order(tree, display)
    findings += check_store_mutation(tree, display,
                                     labelstore_mode=is_labelstore)
    findings += check_layout(tree, display)
    findings += check_error_taxonomy(
        tree, display, swallow_scope=not in_repo or in_service)
    if not in_repo or in_persist:
        findings += check_io_seam(tree, display)
    if in_analysis:
        # the checker checks itself for everything except REP001's
        # name heuristic, which its own docstrings/identifiers trip
        findings = [f for f in findings if f.rule != "REP001"]
    return findings


def analyze_paths(
    paths: Sequence[str | Path] | None = None,
    suppressions: Sequence[Suppression] | str | Path | None = None,
) -> Report:
    """Analyze ``paths`` (default: the installed repro package).

    ``suppressions`` may be pre-parsed entries, a file path, or
    ``None`` for the checked-in default file.
    """
    start = time.monotonic()
    repo_root = default_root()
    roots = ([Path(p) for p in paths] if paths else [repo_root])

    if suppressions is None:
        sups = load_suppressions(default_suppression_file())
    elif isinstance(suppressions, (str, Path)):
        sups = load_suppressions(suppressions)
    else:
        sups = list(suppressions)

    report = Report(root=", ".join(str(r) for r in roots))
    used: set[int] = set()
    for path in _iter_py_files(roots):
        report.files_scanned += 1
        for finding in _check_file(path, repo_root):
            matched = None
            for i, s in enumerate(sups):
                if s.matches(finding):
                    matched = (i, s)
                    break
            if matched is not None:
                used.add(matched[0])
                report.suppressed.append((finding, matched[1]))
            else:
                report.findings.append(finding)
    report.unused_suppressions = [
        s for i, s in enumerate(sups) if i not in used
    ]
    report.elapsed_s = time.monotonic() - start
    return report


def analyze(
    paths: Sequence[str | Path] | None = None,
    suppressions: Sequence[Suppression] | str | Path | None = None,
) -> Report:
    """Alias of :func:`analyze_paths` (the public entry point)."""
    return analyze_paths(paths, suppressions)
