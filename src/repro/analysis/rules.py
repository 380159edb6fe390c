"""REP002 (frozen-store mutation), REP004 (error taxonomy), REP005
(durable-I/O seam).

Each rule is a small AST pass producing :class:`~.findings.Finding`
records.  They are deliberately syntactic — no type inference — with
the receiver heuristics documented per rule; what a heuristic cannot
prove it flags, and a human answers once through the suppression file.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding

__all__ = [
    "check_store_mutation",
    "check_error_taxonomy",
    "check_io_seam",
]

# ---------------------------------------------------------------------------
# REP002 — frozen-store mutation outside the ownership protocol
# ---------------------------------------------------------------------------

#: Every attribute that is LabelStore state: the packed ground truth
#: (per-vertex ``array('Q')`` rows, canonical bitsets, overflow
#: tables) plus the lazy accelerator cache and the
#: copy-on-write bookkeeping.
STORE_ATTRS = frozenset({
    "packed", "canon", "big", "_maps",
    "_owner", "_epoch", "_frozen", "_claimed", "_prev",
})

#: The subset that is label *data* — mutating these without ownership
#: corrupts every snapshot sharing the vertex.
GROUND_TRUTH = frozenset({"packed", "canon", "big"})

#: In-place mutator methods on lists/sets/dicts/arrays.
_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "frombytes", "fromlist",
})

#: LabelStore methods allowed to touch ground truth without a guard:
#: the ownership protocol itself, construction, and the private
#: helpers whose contract is "caller owns the vertex".
_EXEMPT_METHODS = frozenset({
    "__init__", "_own", "_claim", "_set_big", "_refresh_map",
})

#: Calls/loads that constitute an ownership guard when they appear
#: lexically before the first ground-truth write in a method.
_GUARDS = frozenset({"_own", "_claim"})


def _is_storeish(expr: ast.expr) -> bool:
    """Heuristic: does this expression name a LabelStore?  Matches
    ``store``, ``store_in``, ``self._store``, ``index.store_out``, ...
    — anything whose final component mentions "store"."""
    if isinstance(expr, ast.Name):
        return "store" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "store" in expr.attr.lower()
    return False


def _store_write_target(node: ast.expr) -> tuple[ast.expr, str] | None:
    """``(receiver, attr)`` when ``node`` writes LabelStore state."""
    if isinstance(node, ast.Attribute) and node.attr in STORE_ATTRS:
        return node.value, node.attr
    if isinstance(node, ast.Subscript):
        inner = node.value
        if isinstance(inner, ast.Attribute) and inner.attr in GROUND_TRUTH:
            return inner.value, inner.attr
    return None


def check_store_mutation(tree: ast.Module, path: str,
                         labelstore_mode: bool = False) -> list[Finding]:
    """REP002.  Outside ``labelstore.py``: flag any write (assignment,
    subscript store, in-place mutator call) to store state on a
    store-shaped receiver — all mutation must go through the
    ``LabelStore`` API, which owns the copy-on-write and
    cache-invalidation protocol.  Inside ``labelstore.py``
    (``labelstore_mode``): every method writing ground-truth state must
    call ``_own()``/``_claim()`` or check ``self._frozen`` before the
    first write, unless its contract is caller-owns (exempt list)."""
    rule = "REP002"
    findings: list[Finding] = []

    if labelstore_mode:
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for method in (n for n in cls.body
                           if isinstance(n, ast.FunctionDef)):
                if method.name in _EXEMPT_METHODS:
                    continue
                first_write: ast.AST | None = None
                write_attr = ""
                guard_line: int | None = None
                for node in ast.walk(method):
                    line = getattr(node, "lineno", None)
                    if line is None:
                        continue
                    if isinstance(node, ast.Call):
                        f = node.func
                        if isinstance(f, ast.Attribute) and isinstance(
                                f.value, ast.Name) and f.value.id == "self":
                            if f.attr in _GUARDS and (
                                    guard_line is None or line < guard_line):
                                guard_line = line
                            if f.attr in _MUTATORS:
                                continue  # handled via its receiver below
                    if isinstance(node, ast.Attribute) and \
                            node.attr == "_frozen" and isinstance(
                            node.value, ast.Name) and node.value.id == "self":
                        if guard_line is None or line < guard_line:
                            guard_line = line
                    tgt = None
                    if isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (node.targets
                                   if isinstance(node, ast.Assign)
                                   else [node.target])
                        for t in targets:
                            got = _store_write_target(t)
                            if got is not None and isinstance(
                                    got[0], ast.Name) and got[0].id == "self" \
                                    and got[1] in GROUND_TRUTH:
                                tgt = got
                    elif isinstance(node, ast.Call) and isinstance(
                            node.func, ast.Attribute) and \
                            node.func.attr in _MUTATORS:
                        got = _store_write_target(node.func.value)
                        if got is None and isinstance(
                                node.func.value, ast.Attribute) and \
                                node.func.value.attr in GROUND_TRUTH:
                            got = (node.func.value.value,
                                   node.func.value.attr)
                        if got is not None and isinstance(
                                got[0], ast.Name) and got[0].id == "self" \
                                and got[1] in GROUND_TRUTH:
                            tgt = got
                    if tgt is not None and (
                            first_write is None
                            or line < first_write.lineno):
                        first_write = node
                        write_attr = tgt[1]
                if first_write is not None and (
                        guard_line is None
                        or guard_line > first_write.lineno):
                    findings.append(Finding(
                        rule, path, first_write.lineno,
                        f"LabelStore.{method.name} writes ground-truth "
                        f"state ({write_attr!r}) without calling _own()/"
                        "_claim() or checking self._frozen first",
                    ))
        return findings

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for t in targets:
                got = _store_write_target(t)
                if got is not None and _is_storeish(got[0]):
                    findings.append(Finding(
                        rule, path, t.lineno,
                        f"write to packed-store state "
                        f"'.{got[1]}' outside LabelStore — mutation "
                        "must go through the store's own methods "
                        "(copy-on-write ownership + cache invalidation)",
                    ))
        elif isinstance(node, ast.Delete):
            for t in node.targets:
                got = _store_write_target(t)
                if got is not None and _is_storeish(got[0]):
                    findings.append(Finding(
                        rule, path, t.lineno,
                        f"del on packed-store state '.{got[1]}' "
                        "outside LabelStore",
                    ))
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            recv = node.func.value
            got = _store_write_target(recv)
            if got is None and isinstance(recv, ast.Attribute) and \
                    recv.attr in GROUND_TRUTH:
                got = (recv.value, recv.attr)
            if got is not None and _is_storeish(got[0]):
                findings.append(Finding(
                    rule, path, node.lineno,
                    f"in-place mutation of packed-store state "
                    f"'.{got[1]}.{node.func.attr}(...)' outside "
                    "LabelStore",
                ))
    return findings


# ---------------------------------------------------------------------------
# REP004 — error taxonomy
# ---------------------------------------------------------------------------

_BANNED_RAISES = frozenset({"Exception", "ValueError", "RuntimeError"})

#: ServeEngine methods that route a caught exception into the PR 7
#: fault classifier (quarantine / retry / read-only / sticky).
_CLASSIFIERS = frozenset({
    "_record_failure", "_quarantine", "_abort_and_record",
    "_enter_read_only", "_park_until_durable",
})


def check_error_taxonomy(tree: ast.Module, path: str,
                         swallow_scope: bool = True) -> list[Finding]:
    """REP004.  Library code must raise ``repro.errors`` types: a
    ``raise ValueError/RuntimeError/Exception`` on an API seam gives
    callers nothing to catch and the PR 7 fault classifier nothing to
    classify (``ConfigurationError`` subclasses ``ValueError`` for the
    transition).  In ``persist``/``service`` (``swallow_scope``), an
    ``except Exception`` handler must re-raise or route the exception
    into the fault classifier — silently swallowing one turns a
    durability failure into wrong answers."""
    rule = "REP004"
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _BANNED_RAISES:
                findings.append(Finding(
                    rule, path, node.lineno,
                    f"raises bare {name} — library seams raise "
                    "repro.errors types (ConfigurationError subclasses "
                    "ValueError for compatibility)",
                ))
        elif swallow_scope and isinstance(node, ast.ExceptHandler):
            if not _catches_exception(node.type):
                continue
            if _handler_routes(node):
                continue
            findings.append(Finding(
                rule, path, node.lineno,
                "'except Exception' swallowed without re-raising or "
                "routing through the fault classifier "
                "(_record_failure/_quarantine/_abort_and_record/"
                "_enter_read_only)",
            ))
    return findings


def _catches_exception(type_node: ast.expr | None) -> bool:
    if type_node is None:
        return True  # bare except
    if isinstance(type_node, ast.Name):
        return type_node.id == "Exception"
    if isinstance(type_node, ast.Tuple):
        return any(isinstance(e, ast.Name) and e.id == "Exception"
                   for e in type_node.elts)
    return False


def _handler_routes(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and \
                node.func.attr in _CLASSIFIERS:
            return True
    return False


# ---------------------------------------------------------------------------
# REP005 — durable writes go through the io_event fault seam
# ---------------------------------------------------------------------------

#: ``os.<fn>`` calls that durably mutate the filesystem.
_DURABLE_OS = frozenset({
    "write", "fsync", "replace", "ftruncate", "rename", "unlink",
    "truncate", "pwrite",
})


def check_io_seam(tree: ast.Module, path: str) -> list[Finding]:
    """REP005.  Every durable write in ``persist/`` — ``os.write``,
    ``os.fsync``, ``os.replace``, ``os.ftruncate``, ``os.unlink``,
    ``Path.unlink``, and any ``write_all`` call — must be announced
    through :func:`repro.persist.faults.io_event` earlier in the same
    function, so the chaos harness's crash-point coverage of durable
    syscalls stays total.  ``write_all`` itself is the seam's write
    loop and is exempt by name."""
    rule = "REP005"
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name == "write_all":
            continue
        io_lines: list[int] = []
        durable: list[tuple[int, str]] = []
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            f = sub.func
            if isinstance(f, ast.Name) and f.id == "io_event":
                io_lines.append(sub.lineno)
            elif isinstance(f, ast.Attribute) and f.attr == "io_event":
                io_lines.append(sub.lineno)
            elif isinstance(f, ast.Attribute) and isinstance(
                    f.value, ast.Name) and f.value.id == "os" and \
                    f.attr in _DURABLE_OS:
                durable.append((sub.lineno, f"os.{f.attr}"))
            elif isinstance(f, ast.Name) and f.id == "write_all":
                durable.append((sub.lineno, "write_all"))
            elif isinstance(f, ast.Attribute) and f.attr == "write_all":
                durable.append((sub.lineno, "write_all"))
            elif isinstance(f, ast.Attribute) and f.attr == "unlink" and \
                    not (isinstance(f.value, ast.Name)
                         and f.value.id == "os"):
                durable.append((sub.lineno, ".unlink"))
        first_event = min(io_lines, default=None)
        for line, what in durable:
            if first_event is None or first_event > line:
                findings.append(Finding(
                    rule, path, line,
                    f"durable write {what} in {node.name}() is not "
                    "preceded by an io_event(...) announcement — "
                    "FaultInjector crash-point coverage has a hole",
                ))
    return findings
