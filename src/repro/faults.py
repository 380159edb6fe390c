"""Scriptable, thread-safe fault injection for chaos testing.

PR 5 introduced a crash-injection *seam* (:mod:`repro.persist.faults`):
every durable side effect announces itself through ``io_event`` before
executing, and a test hook may raise :class:`SimulatedCrash` to model
process death at exactly that syscall boundary.  This module generalizes
the seam into a **fault harness**: a :class:`FaultInjector` is a
composable set of rules — errno-tagged transient or persistent
``OSError`` s, artificial delays, crash points — matched against event
tags by ``fnmatch`` pattern, applied under an internal lock so the
engine's writer thread and a caller thread (``stop()``'s final WAL sync,
a test reading the log) can use one injector concurrently, and recorded
into an event log the chaos suite (and the nightly CI job) can assert on
and archive.

Typical use::

    inj = FaultInjector()
    inj.fail("wal.write", err=errno.ENOSPC, times=3)    # transient
    inj.fail("ckpt.*", err=errno.EIO)                   # persistent
    inj.crash_at(17)                                    # die at event 17
    with inj.installed():
        ... drive the engine ...
    assert inj.fired("wal.write") == 3
    inj.dump_log(path)

Rules are evaluated first-match-wins per action kind: delays apply
*and* the scan continues (a slow disk can also fail), while error and
crash rules terminate the event.  A crash rule is **persistent** by
default: once it fires, every later durable event also raises, so the
on-disk state stays frozen at the crash point even though the dying
"process" is really a thread that keeps running — exactly the fidelity
the recovery bit-identity oracle needs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from collections.abc import Iterator

from contextlib import contextmanager

from repro.analysis import lockdep
from repro.persist.faults import SimulatedCrash, fault_scope

__all__ = ["FaultInjector", "FaultRule", "SimulatedCrash"]


@dataclass
class FaultRule:
    """One injection rule; matched against event tags in install order."""

    #: ``fnmatch`` pattern over event tags (e.g. ``"wal.*"``)
    pattern: str
    #: ``"error"`` | ``"delay"`` | ``"crash"``
    action: str
    #: errno for ``"error"`` rules
    err: int = 0
    #: sleep seconds for ``"delay"`` rules
    seconds: float = 0.0
    #: remaining firings; ``None`` means persistent (never exhausts)
    remaining: int | None = None
    #: global event ordinal a ``"crash"`` rule arms at (1-based)
    at_event: int | None = None
    #: how many times this rule has fired
    fired: int = 0

    def matches(self, tag: str) -> bool:
        return fnmatchcase(tag, self.pattern)


@dataclass
class FaultEvent:
    """One observed durable I/O event and what the injector did to it."""

    #: 1-based global ordinal of the event
    n: int
    #: the announced tag (``"wal.write"``, ``"ckpt.rename"``, ...)
    tag: str
    #: ``"pass"`` or the injected action (``"ENOSPC"``, ``"crash"``, ...)
    outcome: str = "pass"
    #: monotonic timestamp, for latency forensics in the soak log
    t: float = field(default_factory=time.monotonic)


class FaultInjector:
    """A thread-safe, scriptable hook for the ``io_event`` seam.

    All rule mutation and matching happens under one lock, so the
    injector may be driven from any number of announcing threads; the
    injected exceptions themselves are raised *outside* the lock.
    """

    def __init__(self) -> None:
        # The injector's lock is a leaf: it is taken inside io_event
        # announcements issued under the engine's _dur_lock, so it
        # carries a rank above every engine lock under lockdep.
        self._lock = lockdep.make_lock("FaultInjector._lock", rank=100)
        self._rules: list[FaultRule] = []
        self._events: list[FaultEvent] = []
        self._count = 0
        self._crashed = False

    # ------------------------------------------------------------------
    # Scripting
    # ------------------------------------------------------------------
    def fail(
        self, pattern: str, *, err: int, times: int | None = None
    ) -> FaultRule:
        """Make matching events raise ``OSError(err)``.

        ``times=N`` injects a *transient* fault (the next N matching
        events fail, then the rule exhausts); ``times=None`` (default)
        is *persistent* — it fails every match until :meth:`clear` or
        :meth:`heal` removes it.
        """
        rule = FaultRule(pattern, "error", err=err, remaining=times)
        with self._lock:
            self._rules.append(rule)
        return rule

    def delay(
        self, pattern: str, seconds: float, *, times: int | None = None
    ) -> FaultRule:
        """Sleep ``seconds`` before matching events (slow-disk model)."""
        rule = FaultRule(
            pattern, "delay", seconds=seconds, remaining=times
        )
        with self._lock:
            self._rules.append(rule)
        return rule

    def crash_at(
        self, nth: int, pattern: str = "*"
    ) -> FaultRule:
        """Raise :class:`SimulatedCrash` at the ``nth`` matching event
        (1-based, counted over *all* events for the default pattern).

        The crash is sticky: once fired, **every** later event raises
        too, so nothing can touch the disk after the simulated death —
        the on-disk bytes stay exactly what a real ``kill -9`` at that
        boundary would have left.
        """
        rule = FaultRule(pattern, "crash", at_event=nth)
        with self._lock:
            self._rules.append(rule)
        return rule

    def heal(self, rule: FaultRule) -> None:
        """Remove one rule (e.g. end a persistent outage)."""
        with self._lock:
            if rule in self._rules:
                self._rules.remove(rule)

    def clear(self) -> None:
        """Remove every rule (the log and counters are kept)."""
        with self._lock:
            self._rules.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events(self) -> list[FaultEvent]:
        """A snapshot of the event log (safe from any thread)."""
        with self._lock:
            return list(self._events)

    @property
    def crashed(self) -> bool:
        """Whether a crash rule has fired."""
        with self._lock:
            return self._crashed

    def fired(self, pattern: str = "*") -> int:
        """Injected (non-pass) outcomes among events matching ``pattern``."""
        with self._lock:
            return sum(
                1
                for e in self._events
                if e.outcome != "pass" and fnmatchcase(e.tag, pattern)
            )

    def dump_log(self, path: str | Path) -> Path:
        """Append the event log as JSON lines (the CI chaos artifact)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            lines = [
                json.dumps(
                    {"n": e.n, "tag": e.tag, "outcome": e.outcome,
                     "t": e.t}
                )
                for e in self._events
            ]
        with path.open("a") as fh:
            for line in lines:
                fh.write(line + "\n")
        return path

    # ------------------------------------------------------------------
    # The hook
    # ------------------------------------------------------------------
    def installed(self) -> Iterator[FaultInjector]:
        """Context manager installing this injector into the global
        ``io_event`` seam (scoped + thread-safe; see ``fault_scope``)."""

        @contextmanager
        def _scope():
            with fault_scope(self):
                yield self

        return _scope()

    def __call__(self, tag: str) -> None:
        """The ``io_event`` hook: match rules, record, maybe raise."""
        sleep_for = 0.0
        raise_err: int | None = None
        crash = False
        with self._lock:
            self._count += 1
            event = FaultEvent(n=self._count, tag=tag)
            self._events.append(event)
            if self._crashed:
                event.outcome = "crash"
                crash = True
            else:
                for rule in self._rules:
                    if not rule.matches(tag):
                        continue
                    if rule.remaining == 0:
                        continue
                    if rule.action == "delay":
                        rule.fired += 1
                        if rule.remaining is not None:
                            rule.remaining -= 1
                        sleep_for += rule.seconds
                        continue  # a slow disk can also fail
                    if rule.action == "crash":
                        if self._count < (rule.at_event or 1):
                            continue
                        rule.fired += 1
                        self._crashed = True
                        event.outcome = "crash"
                        crash = True
                        break
                    # action == "error"
                    rule.fired += 1
                    if rule.remaining is not None:
                        rule.remaining -= 1
                    raise_err = rule.err
                    event.outcome = _errno_name(rule.err)
                    break
        if sleep_for:
            time.sleep(sleep_for)
        if crash:
            raise SimulatedCrash(f"injected crash at event {tag!r}")
        if raise_err is not None:
            raise OSError(raise_err, _errno_name(raise_err), tag)


def _errno_name(err: int) -> str:
    import errno as _errno

    return _errno.errorcode.get(err, f"errno {err}")
