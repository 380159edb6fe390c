"""REP002 pass fixture: reads of store state from outside the store."""


def peek(store, v):
    return len(store.packed[v])


def is_stale(store):
    return bool(store._stale)
