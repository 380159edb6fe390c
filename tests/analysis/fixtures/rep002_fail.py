"""REP002 fail fixture: packed-store state poked from outside."""


def hijack(store, row):
    store.packed[3] = row
    store.canon.append(0)
