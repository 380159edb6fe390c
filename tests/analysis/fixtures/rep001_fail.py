"""REP001 fail fixture: a rank inversion and an unranked cycle."""

import threading


class BadEngine:
    def __init__(self):
        self._lock = threading.Lock()
        self._dur_lock = threading.Lock()
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def inverted(self):
        # _lock is innermost in the canonical order; nesting the
        # durability lock inside it is the inversion REP001 must flag.
        with self._lock:
            with self._dur_lock:
                return 1

    def ab(self):
        with self._a_lock:
            with self._b_lock:
                return 2

    def ba(self):
        # Opposite nesting of ab(): a deadlock waiting for the right
        # interleaving, caught as a cycle even though both locks are
        # outside the canonical (ranked) set.
        with self._b_lock:
            with self._a_lock:
                return 3
