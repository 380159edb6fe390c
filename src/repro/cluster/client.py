"""In-process handle to one replica: mapped reads plus a control pipe.

A :class:`ReplicaClient` implements :class:`repro.service.QueryAPI`
over one replica process, so any code written against the protocol —
``drive_mixed`` readers, the benchmarks, the monitor — can query a
replica exactly as it queries a local :class:`~repro.service.Snapshot`.

Reads never cross the process boundary.  The replica publishes each
epoch's packed labels into a memory-mapped image
(:mod:`repro.cluster.image`) and the client joins the mapped words in
the caller's thread: a routed ``sccnt`` costs the reader ~10 µs of CPU
where a pipe round trip cost ~31 µs of CPU and ~50 µs of wall time.
The pipe carries only the control RPCs: ``status`` (and ``epoch``),
``digests``, ``state_bytes`` and ``stop``.

Failure model: one bad interaction condemns the client.  A pipe timeout
or a broken pipe leaves the request/response stream unsynchronized (a
late reply would be attributed to the wrong request); a replica process
that has exited serves nothing.  Either latches ``FAILED`` — the
engine's own health vocabulary — and every later call raises
:class:`~repro.errors.ReplicaUnavailableError` immediately.  Each read
checks the process's sentinel without blocking, so a dead replica is
out of rotation on its next read.  The router treats a failed client
as out of rotation.
"""

from __future__ import annotations

import os
import select
import time
from collections.abc import Sequence

import repro.errors as _errors
from repro.analysis import lockdep
from repro.errors import ClusterError, ReplicaUnavailableError, ReproError
from repro.service.health import FAILED, HEALTHY
from repro.types import CycleCount, PathCount

from repro.cluster.image import ImageEpoch, ImageReader, remove_image

__all__ = ["ReplicaClient"]

#: seconds between looks at an image that is not published yet
_IMAGE_POLL = 0.002


def _rebuild_error(name: str, message: str) -> Exception:
    """Re-raise a replica-side error under its own type when it is part
    of the :mod:`repro.errors` taxonomy (so ``except ReproError:``
    works across the process boundary), else as a ClusterError."""
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        err = cls.__new__(cls)
        Exception.__init__(err, message)
        return err
    return ClusterError(f"replica error {name}: {message}")


class ReplicaClient:
    """One replica process: reads from its mapped image, control RPCs
    over its pipe (thread-safe).

    Implements :class:`repro.service.QueryAPI`; ``epoch`` is one
    ``status`` round-trip.  Lock rank 6 sits below every engine lock:
    a thread holding this lock never calls into the engine, and the
    router (rank 5) may pick under its own lock before calling here.
    Reads take no lock.
    """

    def __init__(self, conn, process, name: str, image_path: str,
                 timeout: float = 30.0) -> None:
        self._conn = conn
        self._process = process
        self._sentinel = (process.sentinel,)
        self._pid = process.pid
        self._image = ImageReader(image_path)
        self.name = name
        self._timeout = timeout
        self._lock = lockdep.make_lock(
            f"ReplicaClient[{name}]._lock", rank=6
        )
        self._health = HEALTHY

    # ------------------------------------------------------------------
    @property
    def health(self) -> str:
        """``HEALTHY`` or (latched) ``FAILED``."""
        return self._health

    @property
    def alive(self) -> bool:
        return self._health == HEALTHY and self._process.is_alive()

    def _fail(self, why: str, cause: BaseException | None = None):
        self._health = FAILED
        err = ReplicaUnavailableError(f"replica {self.name}: {why}")
        if cause is not None:
            err.__cause__ = cause
        return err

    def _exited(self) -> bool:
        """Whether the replica process has ended: a non-blocking poll of
        its sentinel.  A forkserver child's sentinel carries its exit
        status, and a ``join()`` elsewhere reads it some microseconds
        before the server closes the pipe; in that window a signal-0
        probe of the (already reaped) pid tells instead."""
        if select.select(self._sentinel, (), (), 0)[0]:
            return True
        try:
            os.kill(self._pid, 0)
        except ProcessLookupError:
            return True
        return False

    def _release(self) -> None:
        """Unmap the image and delete its file (the replica cannot when
        it was killed)."""
        self._image.close()
        remove_image(self._image.path)

    def _read(self) -> ImageEpoch:
        """The replica's published epoch; waits out a (re-)bootstrap up
        to the timeout."""
        deadline = None
        while True:
            if self._health == FAILED:
                raise ReplicaUnavailableError(
                    f"replica {self.name}: already failed"
                )
            if self._exited():
                self._release()
                raise self._fail("process exited")
            epoch = self._image.current()
            if epoch is not None:
                return epoch
            if deadline is None:
                deadline = time.monotonic() + self._timeout
            elif time.monotonic() > deadline:
                raise self._fail(
                    f"no image published within {self._timeout}s"
                )
            time.sleep(_IMAGE_POLL)

    def _call(self, *request):
        with self._lock:
            if self._health == FAILED:
                raise ReplicaUnavailableError(
                    f"replica {self.name}: already failed"
                )
            try:
                self._conn.send(request)
                if not self._conn.poll(self._timeout):
                    raise self._fail(
                        f"no reply to {request[0]!r} within "
                        f"{self._timeout}s"
                    )
                reply = self._conn.recv()
            except (OSError, EOFError, BrokenPipeError) as exc:
                raise self._fail("pipe broken", exc) from exc
        if reply[0] == "ok":
            return reply[1]
        raise _rebuild_error(reply[1], reply[2])

    # ------------------------------------------------------------------
    # QueryAPI
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._call("status")["epoch"]

    def sccnt(self, v: int) -> CycleCount:
        return self._read().sccnt(v)

    def sccnt_many(self, vertices: Sequence[int]) -> list[CycleCount]:
        return self._read().sccnt_many(vertices)

    def spcnt(self, x: int, y: int) -> PathCount:
        return self._read().spcnt(x, y)

    def spcnt_many(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[PathCount]:
        return self._read().spcnt_many(pairs)

    def top_suspicious(self, k: int = 10) -> list[tuple[int, CycleCount]]:
        return self._read().top_suspicious(k)

    # ------------------------------------------------------------------
    # Cluster management surface
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """The replica's progress counters (epoch, last_seq, resyncs...)."""
        return self._call("status")

    def digests(self) -> dict[int, str]:
        """Per-epoch SHA-256 of ``counter.to_bytes()`` (when the replica
        was started with digest recording)."""
        return self._call("digests")

    def state_bytes(self) -> bytes:
        """The replica counter's full ``to_bytes()`` blob, for direct
        bit-identity checks against the primary."""
        return self._call("state_bytes")

    def stop(self, timeout: float = 10.0) -> dict | None:
        """Ask the replica process to exit; returns its final status
        (``None`` when it was already gone)."""
        final = None
        try:
            final = self._call("stop")
        except (ReplicaUnavailableError, ClusterError):
            pass
        self._health = FAILED
        self._process.join(timeout)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout)
        self._release()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        return final

    def __repr__(self) -> str:
        return f"ReplicaClient({self.name}, health={self._health})"
