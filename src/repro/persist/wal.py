"""Append-only write-ahead log of normalized update batches.

The serving engine logs every update batch *before* applying it and
publishing the resulting epoch, so any state a client could ever have
observed is reconstructible from the last checkpoint plus this log
(log-before-publish).  The log is the durability unit of the ack
contract: once a batch record's bytes are on disk (and, under the
default ``fsync="always"`` policy, flushed), the batch belongs to the
*acknowledged prefix* that recovery must reproduce bit-identically.

Format
------

The log lives in a directory of segment files, rotated at every
checkpoint so fully-checkpointed segments can be deleted::

    wal/
      wal-0000000000000001.log     # first record sequence number, hex
      wal-000000000000002a.log

Each segment starts with a 16-byte header (``RPWL`` magic, version,
first sequence number) followed by CRC-framed records:

    +----------+----------+------------------+
    | len (4B) | crc (4B) | payload (len B)  |
    +----------+----------+------------------+

``crc`` is the CRC-32 of the payload; a record whose frame runs past the
end of the file or whose CRC mismatches marks a *torn tail* — it and
everything after it are discarded (never an exception, never a partial
record).  Payloads carry a record kind, a monotonically increasing
sequence number, and for ``BATCH`` records the epoch-framed batch: the
exact op list plus the ``on_invalid`` policy and rebuild threshold it
was applied under, so recovery replays each batch with identical
framing and therefore lands on identical label bytes.  An ``ABORT`` record marks a batch whose application raised
(the live engine kept its pre-batch state); recovery skips the matching
``BATCH`` record.

All file I/O is unbuffered (``os.open``/``os.write``), so a Python-level
append is an OS-level append: a crashed *process* never loses writes
that returned, and ``fsync`` is only about surviving power loss.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable

from repro.errors import ConfigurationError, PersistenceError
from repro.persist.faults import io_event

__all__ = [
    "BATCH",
    "ABORT",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "read_wal",
    "scan_segment",
    "write_all",
]


def write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte is down.

    A short write (ENOSPC mid-buffer, or a payload past the kernel's
    single-call transfer cap, can surface as a short count rather than
    an exception) must never be mistaken for success: a durable file
    with a silently truncated tail would be treated as torn — or, for
    a checkpoint, corrupt — on recovery, dropping acknowledged data.
    Shared by the WAL appender and the checkpoint writer.
    """
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        if written <= 0:  # pragma: no cover - kernel contract
            raise OSError("os.write made no progress")
        view = view[written:]

_MAGIC = b"RPWL"
_VERSION = 1
_HEADER = struct.Struct("<4sB3xQ")  # magic, version, pad, first_seq
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_OP = struct.Struct("<BII")  # opcode, tail, head

#: Record kinds.
BATCH = 1
ABORT = 2

_OPCODES = {"insert": 0, "delete": 1}
_OPNAMES = {code: name for name, code in _OPCODES.items()}
_POLICIES = {"skip": 0, "raise": 1}
_POLICY_NAMES = {code: name for name, code in _POLICIES.items()}

Op = tuple[str, int, int]


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    #: monotonically increasing record sequence number (1-based)
    seq: int
    #: :data:`BATCH` or :data:`ABORT`
    kind: int
    #: the batch's ops, in submission order (empty for ``ABORT``)
    ops: tuple[Op, ...] = ()
    #: ``apply_batch`` infeasible-op policy the batch ran under
    on_invalid: str = "skip"
    #: ``apply_batch`` rebuild-fallback threshold the batch ran under
    rebuild_threshold: float = 0.0


@dataclass
class WalScan:
    """Everything a log directory yields, plus torn-tail bookkeeping."""

    #: valid records across all segments, in sequence order
    records: list[WalRecord] = field(default_factory=list)
    #: bytes of torn/corrupt tail data discarded (across segments)
    torn_bytes: int = 0
    #: segment that contained the torn tail, if any
    torn_segment: Path | None = None
    #: sequence numbers of aborted batches
    aborted: set[int] = field(default_factory=set)

    def batches(self) -> list[WalRecord]:
        """The ``BATCH`` records that were *not* aborted."""
        return [
            r for r in self.records
            if r.kind == BATCH and r.seq not in self.aborted
        ]


def _encode_batch(
    seq: int, ops: Iterable[Op], on_invalid: str, rebuild_threshold: float
) -> bytes:
    ops = list(ops)
    chunks = [
        struct.pack(
            "<BQBdI",
            BATCH,
            seq,
            _POLICIES[on_invalid],
            rebuild_threshold,
            len(ops),
        )
    ]
    for op, tail, head in ops:
        chunks.append(_OP.pack(_OPCODES[op], tail, head))
    return b"".join(chunks)


def _encode_abort(seq: int) -> bytes:
    return struct.pack("<BQ", ABORT, seq)


def _decode_payload(payload: bytes) -> WalRecord | None:
    """Decode one record payload; ``None`` when malformed (treated the
    same as a CRC failure: the tail from here on is torn)."""
    if not payload:
        return None
    kind = payload[0]
    if kind == ABORT:
        if len(payload) != 9:
            return None
        return WalRecord(seq=struct.unpack_from("<Q", payload, 1)[0],
                         kind=ABORT)
    if kind != BATCH:
        return None
    if len(payload) < 22:
        return None
    _, seq, policy, threshold, count = struct.unpack_from("<BQBdI", payload)
    if policy not in _POLICY_NAMES:
        return None
    if len(payload) != 22 + count * _OP.size:
        return None
    ops = []
    off = 22
    for _ in range(count):
        code, tail, head = _OP.unpack_from(payload, off)
        off += _OP.size
        if code not in _OPNAMES:
            return None
        ops.append((_OPNAMES[code], tail, head))
    return WalRecord(
        seq=seq,
        kind=BATCH,
        ops=tuple(ops),
        on_invalid=_POLICY_NAMES[policy],
        rebuild_threshold=threshold,
    )


def scan_segment(path: str | Path) -> tuple[list[WalRecord], int, int]:
    """Decode one segment file.

    Returns ``(records, valid_bytes, total_bytes)``: the longest valid
    record prefix, the byte offset it ends at, and the file size.  A
    torn or corrupt tail is *data loss already paid for*, not an error —
    scanning never raises on it; only a bad segment header does.
    """
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise PersistenceError(f"{path}: truncated WAL segment header")
    magic, version, _ = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise PersistenceError(f"{path}: not a WAL segment (bad magic)")
    if version != _VERSION:
        raise PersistenceError(
            f"{path}: unsupported WAL segment version {version}"
        )
    records: list[WalRecord] = []
    off = _HEADER.size
    while True:
        if off + _FRAME.size > len(blob):
            break
        length, crc = _FRAME.unpack_from(blob, off)
        end = off + _FRAME.size + length
        if end > len(blob):
            break
        payload = blob[off + _FRAME.size:end]
        if zlib.crc32(payload) != crc:
            break
        record = _decode_payload(payload)
        if record is None:
            break
        records.append(record)
        off = end
    return records, off, len(blob)


def read_wal(wal_dir: str | Path, after_seq: int = 0) -> WalScan:
    """Scan every segment of ``wal_dir`` in order.

    Records with ``seq <= after_seq`` (already folded into a checkpoint)
    are dropped.  Scanning stops at the first torn record — and, because
    segments are rotated only after a durable checkpoint, at the first
    gap in the sequence numbering — so the result is always a *prefix*
    of what was logged.
    """
    scan = WalScan()
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        return scan
    last_seq = after_seq
    for path in sorted(wal_dir.glob("wal-*.log")):
        try:
            records, valid, total = scan_segment(path)
        except PersistenceError:
            # Header torn mid-creation: the segment holds nothing
            # recoverable; it and anything after it are gone.
            scan.torn_bytes += path.stat().st_size
            scan.torn_segment = path
            break
        torn = total - valid
        stop = torn > 0
        for record in records:
            # A BATCH advances the sequence by one; an ABORT repeats its
            # batch's number.  Anything else is a gap — an earlier
            # segment lost records — and nothing after a gap can belong
            # to the contiguous acknowledged prefix.
            if record.kind == ABORT:
                contiguous = record.seq <= last_seq
            else:
                contiguous = record.seq <= last_seq + 1
            if not contiguous:
                stop = True
                break
            last_seq = max(last_seq, record.seq)
            if record.kind == ABORT:
                scan.aborted.add(record.seq)
            if record.seq > after_seq:
                scan.records.append(record)
        if torn:
            scan.torn_bytes += torn
            scan.torn_segment = path
        if stop:
            break
    return scan


class WriteAheadLog:
    """Appender over a segment directory (single writer).

    Parameters
    ----------
    wal_dir:
        Directory for the segment files (created if missing).
    fsync:
        ``"always"`` (default) flushes after every appended record —
        the policy the engine's published-epoch durability guarantee
        depends on; each record already covers a whole maintenance
        batch, so the fsync cost is amortized over up to ``batch_size``
        ops.  ``"off"`` never flushes (crash-safe against process death
        only, not power loss; for benchmarking the fsync cost).
    """

    def __init__(
        self, wal_dir: str | Path, fsync: str = "always"
    ) -> None:
        if fsync not in ("always", "off"):
            raise ConfigurationError(f"unknown fsync policy {fsync!r}")
        self._dir = Path(wal_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fd: int | None = None
        self._path: Path | None = None
        #: valid bytes in the current segment (the boundary a failed
        #: append is rolled back to)
        self._segment_bytes = 0
        #: set when a failed append could not be rolled back: the tail
        #: is in an unknown state, so no further appends are allowed —
        #: otherwise a later record could land after torn bytes and be
        #: silently lost to the torn-tail scan on recovery.
        self._broken = False
        self.records_appended = 0
        self.bytes_appended = 0
        # Reopen the newest segment for append, truncating any torn
        # tail first so new records land on a valid record boundary.
        segments = sorted(self._dir.glob("wal-*.log"))
        if segments:
            tail = segments[-1]
            try:
                _, valid, total = scan_segment(tail)
            except PersistenceError:
                # The header itself is torn (death during segment
                # creation): the file holds no recoverable records —
                # drop it and start fresh on the next append.
                io_event("wal.unlink")
                tail.unlink()
                return
            if valid < total:
                io_event("wal.truncate")
                fd = os.open(tail, os.O_WRONLY)
                try:
                    os.ftruncate(fd, valid)
                    os.fsync(fd)
                finally:
                    os.close(fd)
            self._path = tail
            self._fd = os.open(tail, os.O_WRONLY | os.O_APPEND)
            self._segment_bytes = valid

    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def current_segment(self) -> Path | None:
        return self._path

    def segments(self) -> list[Path]:
        return sorted(self._dir.glob("wal-*.log"))

    def size_bytes(self) -> int:
        """Total on-disk size of all segments.

        Safe to call from any thread while the writer prunes: a segment
        unlinked between the directory listing and its ``stat`` simply
        does not count.
        """
        total = 0
        for p in self.segments():
            try:
                total += p.stat().st_size
            except FileNotFoundError:
                continue
        return total

    # ------------------------------------------------------------------
    def _ensure_segment(self, first_seq: int) -> None:
        if self._fd is not None:
            return
        path = self._dir / f"wal-{first_seq:016x}.log"
        io_event("wal.create")
        fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            write_all(fd, _HEADER.pack(_MAGIC, _VERSION, first_seq))
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        self._path = path
        self._segment_bytes = _HEADER.size

    def _append(self, payload: bytes, seq: int) -> int:
        if self._broken:
            raise PersistenceError(
                "WAL tail is in an unknown state after a failed append; "
                "refusing further appends (recover the data dir to "
                "resume)"
            )
        self._ensure_segment(seq)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        try:
            io_event("wal.write")
            write_all(self._fd, frame)
            if self._fsync == "always":
                io_event("wal.fsync")
                os.fsync(self._fd)
        except Exception:
            # A failed or partial append (ENOSPC, I/O error) must not
            # leave torn bytes mid-log: a later record appended after
            # them would be silently dropped by recovery's torn-tail
            # scan.  Roll the segment back to the last valid record
            # boundary; if even that fails, refuse all future appends.
            try:
                os.ftruncate(self._fd, self._segment_bytes)
            except OSError:
                self._broken = True
            raise
        except BaseException:
            # A non-Exception escape (SimulatedCrash from a fault hook,
            # KeyboardInterrupt in the writer thread) gets no cleanup —
            # a dying process could not clean up either — but if the
            # object somehow lives on, its tail is untrusted: refuse
            # further appends rather than risk writing past torn bytes.
            self._broken = True
            raise
        self._segment_bytes += len(frame)
        self.records_appended += 1
        self.bytes_appended += len(frame)
        return len(frame)

    def append_batch(
        self,
        seq: int,
        ops: Iterable[Op],
        on_invalid: str = "skip",
        rebuild_threshold: float = 0.0,
    ) -> int:
        """Durably append one batch record; returns bytes written."""
        return self._append(
            _encode_batch(seq, ops, on_invalid, rebuild_threshold), seq
        )

    def append_abort(self, seq: int) -> int:
        """Mark batch ``seq`` as aborted (its application raised)."""
        return self._append(_encode_abort(seq), seq)

    def sync(self) -> None:
        """Flush the current segment regardless of the fsync policy."""
        if self._fd is not None:
            io_event("wal.fsync")
            os.fsync(self._fd)

    def rotate(self) -> None:
        """Close the current segment; the next append opens a fresh one
        (named for its first record's sequence number).  Called after a
        durable checkpoint."""
        if self._fd is not None:
            if self._fsync == "always":
                io_event("wal.fsync")
                os.fsync(self._fd)
            os.close(self._fd)
            self._fd = None
            self._path = None

    def prune_segments_through(self, seq: int) -> list[Path]:
        """Delete segments whose records are all ``<= seq`` (folded into
        a durable checkpoint).  The newest segment is never deleted."""
        segments = self.segments()
        removed = []
        for i, path in enumerate(segments[:-1]):
            nxt = segments[i + 1]
            next_first = int(nxt.stem.split("-")[1], 16)
            if next_first <= seq + 1 and path != self._path:
                io_event("wal.unlink")
                path.unlink()
                removed.append(path)
            else:
                break
        return removed

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            self._path = None
