"""REP001 — static lock-order extraction for the serving stack.

The serving engine's discipline is documented but nowhere enforced:
``_dur_lock`` (durability serialization) may be taken before ``_lock``
(engine state, aliased by the ``_progress`` condition) — and never the
other way around.  Today the two are never held together;
this rule keeps it that way *by construction* as the cluster tier adds
threads: it extracts the static lock-acquisition graph from ``with``
nesting (including across helper calls one level deep) and fails on

* an acquisition that inverts :data:`CANONICAL_ORDER`, and
* any cycle in the acquisition graph (two unranked locks taken in both
  orders deadlock just as surely as a rank inversion).

A *lock expression* is ``with self.<attr>:`` or ``with <name>:`` where
the attribute/name contains ``lock`` (case-insensitive) or is a known
condition alias (``_progress`` guards ``_lock``).  Helper expansion is
one level deep and intra-class only, matching how the engine is
written; deeper indirection should hold a lock across a call boundary
rarely enough that it can carry a suppression with its justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

__all__ = ["CANONICAL_ORDER", "LOCK_ALIASES", "check_lock_order"]

RULE = "REP001"

#: Outermost-first canonical order for the serving stack's named locks.
CANONICAL_ORDER: tuple[str, ...] = ("_dur_lock", "_lock")

#: Condition variables that guard (and thus *are*) another lock.
LOCK_ALIASES: dict[str, str] = {"_progress": "_lock"}

_RANK = {name: i for i, name in enumerate(CANONICAL_ORDER)}


def _lock_name(expr: ast.expr) -> str | None:
    """The lock key of a ``with`` context expression, or ``None``."""
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return None
    if "lock" in name.lower() or name in LOCK_ALIASES:
        return LOCK_ALIASES.get(name, name)
    return None


@dataclass
class _FunctionLocks:
    """Lock behavior of one function: edges it creates internally and
    the locks it acquires while holding nothing (its *entry set*)."""

    name: str
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    entry: list[tuple[str, int]] = field(default_factory=list)
    #: (held lock, callee name, call line) — expanded one level deep
    calls_under: list[tuple[str, str, int]] = field(default_factory=list)


class _Extractor(ast.NodeVisitor):
    """Collect per-function lock events for one module."""

    def __init__(self) -> None:
        self.functions: list[_FunctionLocks] = []
        self._stack: list[str] = []
        self._current: _FunctionLocks | None = None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        outer, outer_stack = self._current, self._stack
        self._current = _FunctionLocks(node.name)
        self._stack = []
        for child in node.body:
            self.visit(child)
        self.functions.append(self._current)
        self._current, self._stack = outer, outer_stack

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        fn = self._current
        for item in node.items:
            lock = _lock_name(item.context_expr)
            if lock is None or fn is None:
                continue
            for held in self._stack:
                fn.edges.append((held, lock, item.context_expr.lineno))
            if not self._stack:
                fn.entry.append((lock, item.context_expr.lineno))
            self._stack.append(lock)
            acquired.append(lock)
        for child in node.body:
            self.visit(child)
        for _ in acquired:
            self._stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._current
        if fn is not None and self._stack:
            callee = None
            if isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name) and node.func.value.id in (
                    "self", "cls"):
                callee = node.func.attr
            elif isinstance(node.func, ast.Name):
                callee = node.func.id
            if callee is not None:
                for held in self._stack:
                    fn.calls_under.append((held, callee, node.lineno))
        self.generic_visit(node)


def check_lock_order(tree: ast.Module, path: str) -> list[Finding]:
    extractor = _Extractor()
    extractor.visit(tree)
    by_name: dict[str, _FunctionLocks] = {}
    for fn in extractor.functions:
        # last definition wins, as at runtime
        by_name[fn.name] = fn

    edges: list[tuple[str, str, int, str]] = []
    for fn in extractor.functions:
        for held, inner, line in fn.edges:
            edges.append((held, inner, line, fn.name))
        # one-level helper expansion: a call made while holding a lock
        # contributes the callee's entry acquisitions as nested edges
        for held, callee, line in fn.calls_under:
            target = by_name.get(callee)
            if target is None:
                continue
            for inner, _ in target.entry:
                edges.append((held, inner, line,
                              f"{fn.name} -> {callee}"))

    findings: list[Finding] = []
    graph: dict[str, set[str]] = {}
    for held, inner, line, where in edges:
        if held == inner:
            findings.append(Finding(
                RULE, path, line,
                f"lock {held!r} re-acquired while already held "
                f"(in {where}) — self-deadlock on a non-reentrant lock",
            ))
            continue
        r_held, r_inner = _RANK.get(held), _RANK.get(inner)
        if r_held is not None and r_inner is not None and r_held > r_inner:
            findings.append(Finding(
                RULE, path, line,
                f"lock-order inversion in {where}: {inner!r} acquired "
                f"while holding {held!r}, but the canonical order is "
                + " -> ".join(CANONICAL_ORDER),
            ))
        graph.setdefault(held, set()).add(inner)

    cycle = _find_cycle(graph)
    if cycle is not None:
        line = min((line for h, i, line, _ in edges
                    if h in cycle and i in cycle), default=1)
        findings.append(Finding(
            RULE, path, line,
            "cyclic lock-acquisition graph: "
            + " -> ".join([*cycle, cycle[0]]),
        ))
    return findings


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """First cycle in the acquisition graph, as a node list."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    trail: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GREY
        trail.append(node)
        for succ in sorted(graph.get(node, ())):
            if color.get(succ, WHITE) == GREY:
                return trail[trail.index(succ):]
            if color.get(succ, WHITE) == WHITE:
                found = dfs(succ)
                if found is not None:
                    return found
        trail.pop()
        color[node] = BLACK
        return None

    for start in sorted(graph):
        if color[start] == WHITE:
            found = dfs(start)
            if found is not None:
                return found
    return None
