"""Memory-mapped label images: routed reads without a round trip.

A replica publishes every epoch's packed label words into a file that
its :class:`~repro.cluster.ReplicaClient` maps read-only, so a routed
``sccnt`` is a join over mapped words in the caller's process instead of
a pipe request to the replica.  The words are exactly
``LabelStore.packed`` (the paper's 23/17/24 layout, Section VI-A); the
joins are :func:`repro.labeling.labelstore.join_words_min_count` and
:func:`~repro.labeling.labelstore.join_words_path`.

Layout
------
The file is an array of 64-bit words in the machine's byte order (the
writer and its readers share the machine), written append-only as an
arena.  Word 0 is a magic number; word 1 is the **root**: the
offset of the current epoch's record, or one of two markers:

* withdrawn (0) — no epoch is served (a re-bootstrap is rebuilding
  the state; readers wait for the next image);
* moved (1) — this file was superseded; the path now names a newer
  one, which readers reopen.

An epoch record is four words ``(epoch, n, pos, directory)``:

* ``pos`` — offset of the ``pos`` column (``n`` words), which ``spcnt``
  needs for the couple-shifted hub of ``x_in``;
* ``directory`` — offset of ``ceil(n / 64)`` page offsets.  A page holds
  64 rows of two words, ``Lout(v_out)`` then ``Lin(v_in)``; each is a
  side reference ``start << 25 | has_big << 24 | k``: ``k`` hub-sorted
  words at ``start``, followed, when ``has_big`` is set, by the side's
  overflow table (``len(big)``, then ``(hub, count)`` pairs).

Publishing
----------
:class:`ImageWriter` appends, per epoch, only what changed since the
last published snapshot: the sides of the dirty vertices
(:func:`repro.persist.manager._dirty_vertices`, the delta checkpoints'
rule), a copy of each page holding one of them with its rows patched,
a new directory, the ``pos`` column if it changed, and the epoch record.
One aligned 8-byte store of the root then publishes the epoch.  Bytes
once published are never rewritten, so a reader that loaded an old root
keeps a consistent view.  When the arena is full — the garbage has
grown to the size of the live image — the writer compacts: it writes
the whole epoch into a fresh file, renames it over the path and marks
the old file moved.  Readers drop their old mapping when they move
on, which unmaps it.

Files live in ``/dev/shm`` where it exists (no disk I/O), under names
that start with ``repro-image-``.  The replica removes its file when it
exits; the client removes it too once the replica process is gone or
stopped, so a killed replica leaves nothing behind.
"""

from __future__ import annotations

import mmap
import os
import secrets
import tempfile
from array import array
from collections.abc import Sequence
from itertools import chain

from repro.core.csc import checked_pairs, checked_vertices
from repro.errors import ClusterError, SerializationError, VertexError
from repro.labeling.labelstore import (
    UNREACHED,
    LabelStore,
    join_words_min_count,
    join_words_path,
)
from repro.persist.manager import _dirty_vertices
from repro.types import (
    NO_CYCLE,
    NO_PATH,
    CycleCount,
    PathCount,
    top_by_cycles,
)

__all__ = ["ImageReader", "ImageWriter", "new_image_path", "remove_image"]

#: word 0 of every image file
_MAGIC = int.from_bytes(b"RPIMAGE1", "little")
#: word index of the root
_ROOT = 1
_HEADER_WORDS = 2
#: root markers (a real root is at least ``_HEADER_WORDS``)
_WITHDRAWN = 0
_MOVED = 1

#: side reference: ``start << _START_SHIFT | _HAS_BIG | k``
_START_SHIFT = 25
_HAS_BIG = 1 << 24
_LEN_MASK = _HAS_BIG - 1

#: rows per page (a power of two)
_PAGE_BITS = 6
_PAGE_ROWS = 1 << _PAGE_BITS
_ROW_MASK = _PAGE_ROWS - 1

#: free words a fresh file gets beyond twice its live size
_SLACK_WORDS = 1 << 10

_NEXT_SUFFIX = ".next"


def new_image_path(tag: str) -> str:
    """A fresh image path for one replica: in ``/dev/shm`` when it
    exists, else the temporary directory."""
    shm = "/dev/shm"
    base = shm if os.path.isdir(shm) else tempfile.gettempdir()
    name = f"repro-image-{os.getpid()}-{tag}-{secrets.token_hex(4)}"
    return os.path.join(base, name)


def remove_image(path: str) -> None:
    """Delete an image file and a half-written successor (idempotent)."""
    for name in (path, path + _NEXT_SUFFIX):
        try:
            os.unlink(name)
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Writer (replica side)
# ---------------------------------------------------------------------------


class _Appender:
    """Word buffers queued for one append, and where each one lands."""

    __slots__ = ("chunks", "end")

    def __init__(self, start: int) -> None:
        self.chunks: list = []
        self.end = start

    def add(self, words) -> int:
        at = self.end
        self.chunks.append(words)
        self.end += len(words)
        return at

    def side(self, store: LabelStore, v: int) -> int:
        """Append one side's words (and overflow table); its reference."""
        words = store.packed[v]
        ref = self.add(words) << _START_SHIFT | len(words)
        big = store.big[v]
        if big:
            try:
                self.add(array("Q", [
                    len(big), *chain.from_iterable(sorted(big.items()))
                ]))
            except OverflowError as exc:
                raise SerializationError(
                    f"a count of vertex {v} exceeds 64-bit storage"
                ) from exc
            ref |= _HAS_BIG
        return ref


class ImageWriter:
    """Publishes a replica's snapshots into the image at ``path``.

    Single-threaded: the replica calls it from whichever thread owns
    its state (bootstrap, then the apply thread).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._map: mmap.mmap | None = None
        self._words: memoryview | None = None
        self._capacity = 0
        self._end = 0
        self._snapshot = None
        self._refs_out: list[int] = []
        self._refs_in: list[int] = []
        self._pages: list[int] = []
        self._pos: list[int] = []
        self._pos_at = 0

    def publish(self, snapshot) -> None:
        """Make ``snapshot`` (a :class:`~repro.service.Snapshot`) the
        image's current epoch."""
        if snapshot is self._snapshot:
            return
        prev = self._snapshot
        index = snapshot.index
        appender = None
        if prev is not None and len(prev.index.pos) == len(index.pos):
            appender = self._delta(prev.index, index, snapshot.epoch)
            if appender.end > self._capacity:
                appender = None  # full: compact into a fresh file
        if appender is None:
            self._rewrite(index, snapshot.epoch)
        else:
            start = self._end * 8
            blob = b"".join(appender.chunks)
            self._map[start:start + len(blob)] = blob
            self._words[_ROOT] = appender.end - 4
            self._end = appender.end
        self._snapshot = snapshot

    def _delta(self, prev, index, epoch: int) -> _Appender:
        out = _Appender(self._end)
        pages = set()
        for store, old, refs in (
            (index.store_out, prev.store_out, self._refs_out),
            (index.store_in, prev.store_in, self._refs_in),
        ):
            for v in _dirty_vertices(old, store):
                refs[v] = out.side(store, v)
                pages.add(v >> _PAGE_BITS)
        for p in sorted(pages):
            self._pages[p] = out.add(self._page(p))
        return self._finish(out, index, epoch)

    def _finish(self, out: _Appender, index, epoch: int) -> _Appender:
        """Append the directory, the ``pos`` column if it changed, and
        the epoch record (last, four words)."""
        directory = out.add(array("Q", self._pages))
        if index.pos != self._pos:
            self._pos = list(index.pos)
            self._pos_at = out.add(array("Q", self._pos))
        out.add(array("Q", [epoch, len(self._pos), self._pos_at,
                            directory]))
        return out

    def _page(self, p: int) -> array:
        lo = p << _PAGE_BITS
        outs = self._refs_out[lo:lo + _PAGE_ROWS]
        rows = [0] * (2 * _PAGE_ROWS)
        rows[0:2 * len(outs):2] = outs
        rows[1:2 * len(outs):2] = self._refs_in[lo:lo + _PAGE_ROWS]
        return array("Q", rows)

    def _rewrite(self, index, epoch: int) -> None:
        """Write the whole epoch into a fresh file and swap it in."""
        n = len(index.pos)
        out = _Appender(_HEADER_WORDS)
        self._refs_out = [out.side(index.store_out, v) for v in range(n)]
        self._refs_in = [out.side(index.store_in, v) for v in range(n)]
        self._pages = [
            out.add(self._page(p))
            for p in range((n + _PAGE_ROWS - 1) >> _PAGE_BITS)
        ]
        self._pos = []  # forces the column into the fresh file
        self._finish(out, index, epoch)
        capacity = 2 * out.end + _SLACK_WORDS
        fresh = self.path + _NEXT_SUFFIX
        fd = os.open(fresh, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            os.ftruncate(fd, capacity * 8)
            mapped = mmap.mmap(fd, capacity * 8)
        finally:
            os.close(fd)
        words = memoryview(mapped).cast("Q")
        words[0] = _MAGIC
        mapped[_HEADER_WORDS * 8:out.end * 8] = b"".join(out.chunks)
        words[_ROOT] = out.end - 4
        os.replace(fresh, self.path)
        self._release(_MOVED)
        self._map, self._words = mapped, words
        self._capacity, self._end = capacity, out.end

    def _release(self, marker: int) -> None:
        """Mark the current file and unmap it."""
        if self._words is None:
            return
        self._words[_ROOT] = marker
        self._words.release()
        self._map.close()
        self._map = self._words = None

    def withdraw(self) -> None:
        """Stop serving the current epoch: readers wait until the next
        :meth:`publish`, which writes a fresh file."""
        if self._words is not None:
            self._words[_ROOT] = _WITHDRAWN
        self._snapshot = None

    def close(self) -> None:
        """Withdraw the image and delete its file (idempotent)."""
        self._release(_WITHDRAWN)
        self._snapshot = None
        remove_image(self.path)


# ---------------------------------------------------------------------------
# Reader (client side)
# ---------------------------------------------------------------------------


class ImageEpoch:
    """One published epoch of an image: the QueryAPI reads, answered
    from the mapped words.  Immutable; safe to share across threads."""

    __slots__ = ("words", "root", "epoch", "n", "_pos", "_dir")

    def __init__(self, words: memoryview, root: int) -> None:
        self.words = words
        self.root = root
        self.epoch, self.n, self._pos, self._dir = (
            words[root:root + 4].tolist()
        )

    def _side(self, ref: int) -> tuple[list[int], dict[int, int] | None]:
        words = self.words
        start = ref >> _START_SHIFT
        end = start + (ref & _LEN_MASK)
        big = None
        if ref & _HAS_BIG:
            flat = words[end + 1:end + 1 + 2 * words[end]].tolist()
            big = dict(zip(flat[0::2], flat[1::2]))
        return words[start:end].tolist(), big

    def _row(self, v: int) -> int:
        return (self.words[self._dir + (v >> _PAGE_BITS)]
                + 2 * (v & _ROW_MASK))

    def sccnt(self, v: int) -> CycleCount:
        n = self.n
        if not 0 <= v < n:
            raise VertexError(v, n)
        row = self._row(v)
        words_out, big_out = self._side(self.words[row])
        words_in, big_in = self._side(self.words[row + 1])
        best, total = join_words_min_count(words_out, words_in,
                                           big_out, big_in)
        if total == 0 or best == UNREACHED:
            return NO_CYCLE
        # As in CSCIndex.sccnt: skip NamedTuple's Python-level __new__.
        return tuple.__new__(CycleCount, (total, (best + 1) // 2))

    def spcnt(self, x: int, y: int) -> PathCount:
        n = self.n
        if not 0 <= x < n:
            raise VertexError(x, n)
        if not 0 <= y < n:
            raise VertexError(y, n)
        if x == y:
            return PathCount(1, 0)
        words = self.words
        words_out, big_out = self._side(words[self._row(x)])
        words_in, big_in = self._side(words[self._row(y) + 1])
        best, total = join_words_path(words_out, words_in,
                                      words[self._pos + x], big_out,
                                      big_in)
        if total == 0 or best == UNREACHED:
            return NO_PATH
        return PathCount(total, best // 2)

    def sccnt_many(self, vertices: Sequence[int]) -> list[CycleCount]:
        vs = checked_vertices(vertices, self.n)
        sccnt = self.sccnt
        memo = {v: sccnt(v) for v in dict.fromkeys(vs)}
        return [memo[v] for v in vs]

    def spcnt_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[PathCount]:
        ps = checked_pairs(pairs, self.n)
        spcnt = self.spcnt
        memo = {p: spcnt(*p) for p in dict.fromkeys(ps)}
        return [memo[p] for p in ps]

    def top_suspicious(self, k: int = 10) -> list[tuple[int, CycleCount]]:
        sccnt = self.sccnt
        return top_by_cycles([(v, sccnt(v)) for v in range(self.n)], k)


class ImageReader:
    """Maps the image at ``path`` read-only and follows it across
    epochs and compactions.  Thread-safe without a lock: every reader
    thread sees a whole :class:`ImageEpoch` or none."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._words: memoryview | None = None
        self._epoch: ImageEpoch | None = None

    def current(self) -> ImageEpoch | None:
        """The published epoch, or ``None`` while none is (the replica
        is still bootstrapping, or re-bootstrapping)."""
        words = self._words
        if words is not None:
            root = words[_ROOT]
            epoch = self._epoch
            if epoch is not None and epoch.root == root \
                    and epoch.words is words:
                return epoch
            if root == _WITHDRAWN:
                return None
            if root != _MOVED:
                epoch = self._epoch = ImageEpoch(words, root)
                return epoch
        words = self._words = self._open()
        if words is None or words[_ROOT] <= _MOVED:
            return None
        epoch = self._epoch = ImageEpoch(words, words[_ROOT])
        return epoch

    def _open(self) -> memoryview | None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return None
        try:
            mapped = mmap.mmap(fd, os.fstat(fd).st_size,
                               access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        words = memoryview(mapped).cast("Q")
        if words[0] != _MAGIC:
            raise ClusterError(f"{self.path} is not a label image")
        return words

    def close(self) -> None:
        """Drop the mapping (unmapped once no reader holds an epoch)."""
        self._words = self._epoch = None
