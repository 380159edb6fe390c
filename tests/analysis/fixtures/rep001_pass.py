"""REP001 pass fixture: canonical nesting, plus a helper call whose
entry acquisition stays consistent with the held lock."""

import threading


class GoodEngine:
    def __init__(self):
        self._dur_lock = threading.Lock()
        self._lock = threading.Lock()

    def canonical(self):
        with self._dur_lock:
            with self._lock:
                return 1

    def _leaf(self):
        with self._lock:
            return 2

    def helper_ok(self):
        # One-level expansion sees _leaf's entry acquisition of _lock
        # under _dur_lock — the canonical direction.
        with self._dur_lock:
            return self._leaf()
