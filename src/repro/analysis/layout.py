"""REP003 — bit-layout drift.

The paper's 64-bit packed label entry — ``vertex:23 | distance:17 |
count:24`` — is encoded in two places: :mod:`repro.labeling.packing`
(the authority) and the merge-join kernels in
:mod:`repro.labeling.labelstore`, which re-derive their shifts and
masks as module constants for speed.  A drifted shift or mask in
either is the worst kind of bug: every layer still runs, the numbers
are just wrong.  This rule constant-folds the module-level layout assignments in
each file and fails unless they all agree with :data:`SPEC` — the one
declared source of truth.

The evaluator is deliberately tiny: integer constants, names bound
earlier in the same module or imported from a watched module (resolved
to their *spec* values, so a locally re-derived mask is checked against
the authoritative widths), and pure-integer arithmetic.  Anything it
cannot fold is reported as unverifiable rather than silently trusted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding

__all__ = ["LayoutSpec", "SPEC", "EXPECTED", "check_layout"]

RULE = "REP003"


@dataclass(frozen=True)
class LayoutSpec:
    """The single declared packed-entry layout (paper Section IV)."""

    vertex_bits: int = 23
    distance_bits: int = 17
    count_bits: int = 24

    @property
    def entry_bits(self) -> int:
        return self.vertex_bits + self.distance_bits + self.count_bits

    @property
    def entry_bytes(self) -> int:
        return self.entry_bits // 8

    @property
    def hub_shift(self) -> int:
        return self.distance_bits + self.count_bits

    @property
    def vertex_max(self) -> int:
        return (1 << self.vertex_bits) - 1

    @property
    def distance_max(self) -> int:
        return (1 << self.distance_bits) - 1

    @property
    def count_max(self) -> int:
        return (1 << self.count_bits) - 1


SPEC = LayoutSpec()
assert SPEC.entry_bits == 64, "packed entry must fill one uint64"
assert SPEC.entry_bytes * 8 == SPEC.entry_bits

#: Name -> value every module-level binding of that name must fold to.
EXPECTED: dict[str, int] = {
    "VERTEX_BITS": SPEC.vertex_bits,
    "DISTANCE_BITS": SPEC.distance_bits,
    "COUNT_BITS": SPEC.count_bits,
    "ENTRY_BYTES": SPEC.entry_bytes,
    "HUB_SHIFT": SPEC.hub_shift,
    "_VERTEX_MAX": SPEC.vertex_max,
    "_DISTANCE_MAX": SPEC.distance_max,
    "_COUNT_MAX": SPEC.count_max,
    "_DIST_MASK": SPEC.distance_max,
    "_COUNT_MASK": SPEC.count_max,
    "COUNT_SATURATED": SPEC.count_max,
    "UNREACHED": 1 << 60,
}

_INT_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a ** b,
    ast.LShift: lambda a, b: a << b,
    ast.RShift: lambda a, b: a >> b,
    ast.BitOr: lambda a, b: a | b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitXor: lambda a, b: a ^ b,
}


def _fold(node: ast.expr, env: dict[str, int]) -> int | None:
    """Constant-fold an integer expression, or ``None`` if it refers to
    anything outside ``env`` / pure-integer arithmetic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.BinOp) and type(node.op) in _INT_OPS:
        left = _fold(node.left, env)
        right = _fold(node.right, env)
        if left is None or right is None:
            return None
        try:
            return _INT_OPS[type(node.op)](left, right)
        except (ValueError, ZeroDivisionError, OverflowError):
            return None
    if isinstance(node, ast.UnaryOp):
        val = _fold(node.operand, env)
        if val is None:
            return None
        if isinstance(node.op, ast.USub):
            return -val
        if isinstance(node.op, ast.Invert):
            return ~val
        if isinstance(node.op, ast.UAdd):
            return val
    return None


def check_layout(tree: ast.Module, path: str) -> list[Finding]:
    """Check every module-level binding of a watched layout name.

    Imports of watched names are seeded with their *spec* values, so a
    module that derives ``_DIST_MASK = (1 << DISTANCE_BITS) - 1`` from
    an imported width is checked against the authoritative layout, not
    against whatever the imported module currently says (that module is
    checked directly on its own pass).
    """
    findings: list[Finding] = []
    env: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.asname or alias.name
                if alias.name in EXPECTED:
                    env[name] = EXPECTED[alias.name]
            continue
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            value = _fold(node.value, env)
            if value is not None:
                env[target.id] = value
            if target.id not in EXPECTED:
                continue
            want = EXPECTED[target.id]
            if value is None:
                findings.append(Finding(
                    RULE, path, node.lineno,
                    f"layout constant {target.id} is not "
                    f"statically verifiable against the declared "
                    f"{SPEC.vertex_bits}/{SPEC.distance_bits}/"
                    f"{SPEC.count_bits} layout",
                ))
            elif value != want:
                findings.append(Finding(
                    RULE, path, node.lineno,
                    f"layout drift: {target.id} = {value}, but the "
                    f"declared {SPEC.vertex_bits}/{SPEC.distance_bits}/"
                    f"{SPEC.count_bits} layout requires {want}",
                ))
    return findings
