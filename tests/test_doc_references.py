"""Every dotted ``repro.<module>[.<attr>...]`` reference in ``README.md``
and in the package source must resolve.

Docstrings, comments and messages name modules and functions in dotted
form (``:func:`repro.core.maintenance.insert_edge```); when a module is
deleted or a function renamed, a stale mention keeps sending readers to
code that no longer exists.  This test imports the longest importable
module prefix of each reference and resolves the rest as attributes.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [ROOT / "README.md", *sorted((ROOT / "src" / "repro").rglob("*.py"))]
REFERENCE = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def _resolves(reference: str) -> bool:
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_dotted_references_resolve():
    unresolved: dict[str, list[str]] = {}
    seen = 0
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for ref in REFERENCE.findall(line):
                seen += 1
                if not _resolves(ref):
                    where = f"{path.relative_to(ROOT)}:{lineno}"
                    unresolved.setdefault(ref, []).append(where)
    assert seen > 100  # the scan reads what it is meant to read
    assert not unresolved, unresolved
