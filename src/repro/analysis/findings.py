"""Finding records, suppressions, and report rendering for ``repro
analyze``.

A *finding* is one violation of one rule (REP001–REP005) at one source
location.  Findings are plain data so the runner can render them as
text or JSON and diff them against the checked-in suppression file.

Suppression file format (one entry per line)::

    # comment
    REP004 src/repro/faults.py:120        deliberate non-library error ...
    REP002 tests/legacy/poker.py          grandfathered; tracked in #12

i.e. ``<rule> <path>[:<line>] <reason>``.  The *reason is mandatory* —
an entry without one is a configuration error, not a suppression: the
whole point of the file is that every grandfathered finding carries its
justification in-tree.  Paths match by suffix (posix form), so entries
stay valid regardless of the directory the analyzer is invoked from;
an entry with a ``:line`` pins one exact finding, an entry without
suppresses the rule for the whole file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from repro.errors import ConfigurationError

__all__ = [
    "Finding",
    "Suppression",
    "Report",
    "load_suppressions",
    "parse_suppressions",
]

#: JSON report schema version (see README "Static analysis &
#: invariants" for the field-by-field contract).
JSON_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style, repo-relative when scanned from the repo
    line: int
    message: str

    def key(self) -> tuple[str, str, int]:
        return (self.rule, self.path, self.line)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One suppression-file entry (rule + path suffix + reason)."""

    rule: str
    path: str
    line: int | None
    reason: str
    source_line: int = 0

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule:
            return False
        if self.line is not None and self.line != finding.line:
            return False
        target = PurePosixPath(finding.path)
        want = PurePosixPath(self.path)
        return target == want or str(target).endswith("/" + str(want)) \
            or str(target).endswith(str(want))


@dataclass
class Report:
    """Everything one ``analyze()`` run produced."""

    root: str
    files_scanned: int = 0
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(
        default_factory=list
    )
    unused_suppressions: list[Suppression] = field(default_factory=list)
    #: wall-clock seconds the scan took (perf budget: < 10 s on the repo)
    elapsed_s: float = 0.0

    @property
    def active(self) -> list[Finding]:
        """Findings not covered by a suppression — these fail the run."""
        return self.findings

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        lines = []
        for f in sorted(self.findings, key=Finding.key):
            lines.append(f.render())
        for f, s in sorted(self.suppressed, key=lambda p: p[0].key()):
            lines.append(f"{f.render()}  [suppressed: {s.reason}]")
        for s in self.unused_suppressions:
            lines.append(
                f"note: unused suppression {s.rule} {s.path}"
                + (f":{s.line}" if s.line is not None else "")
            )
        lines.append(
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.files_scanned} file(s) scanned "
            f"in {self.elapsed_s:.2f}s"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        def enc(f: Finding, sup: Suppression | None) -> dict:
            return {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "suppressed": sup is not None,
                "reason": sup.reason if sup is not None else None,
            }

        doc = {
            "version": JSON_SCHEMA_VERSION,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "elapsed_s": round(self.elapsed_s, 3),
            "findings": (
                [enc(f, None) for f in sorted(self.findings,
                                              key=Finding.key)]
                + [enc(f, s) for f, s in sorted(self.suppressed,
                                                key=lambda p: p[0].key())]
            ),
            "unused_suppressions": [
                {"rule": s.rule, "path": s.path, "line": s.line,
                 "reason": s.reason}
                for s in self.unused_suppressions
            ],
            "summary": {
                "total": len(self.findings) + len(self.suppressed),
                "suppressed": len(self.suppressed),
                "active": len(self.findings),
            },
        }
        return json.dumps(doc, indent=2)


def parse_suppressions(text: str, origin: str = "<suppressions>"
                       ) -> list[Suppression]:
    """Parse suppression-file content; every entry must carry a reason."""
    out: list[Suppression] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise ConfigurationError(
                f"{origin}:{lineno}: suppression needs "
                f"'<rule> <path>[:<line>] <reason>', got {line!r} "
                "(the reason is mandatory)"
            )
        rule, target, reason = parts
        if not rule.startswith("REP"):
            raise ConfigurationError(
                f"{origin}:{lineno}: unknown rule id {rule!r}"
            )
        line_no: int | None = None
        if ":" in target:
            target, _, tail = target.rpartition(":")
            if not tail.isdigit():
                raise ConfigurationError(
                    f"{origin}:{lineno}: bad line number {tail!r}"
                )
            line_no = int(tail)
        out.append(Suppression(rule, target, line_no, reason.strip(),
                               lineno))
    return out


def load_suppressions(path: str | Path) -> list[Suppression]:
    """Load a suppression file; a missing file is an empty list."""
    p = Path(path)
    if not p.exists():
        return []
    return parse_suppressions(p.read_text(), origin=str(p))
