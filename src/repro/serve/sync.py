"""Synchronization primitives for the concurrent serving layer.

The standard library has no reader–writer lock; the serving layer needs two:

* the engine-wide **write gate** — delta-store writers take it exclusively so
  a query never observes a column version moving underneath it (growable
  delta arrays may reallocate on append), while all query execution holds it
  shared;
* the per-index **work lane** — mutating query execution (progressive
  construction, cracking, MERGE folds) holds it exclusively, forming the
  serialized work queue, while converged vectorized lookups hold it shared
  and therefore run concurrently with each other.

The implementation is writer-preferring: once a writer is waiting, new
readers queue behind it, bounding writer latency under a read-heavy stream.
"""

from __future__ import annotations

import threading


class _ReadGuard:
    """``with lock.read():`` — a plain guard object, not a generator: the
    read path enters two of these per query."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock") -> None:
        self._lock = lock

    def __enter__(self) -> "RWLock":
        self._lock.acquire_read()
        return self._lock

    def __exit__(self, *exc) -> None:
        self._lock.release_read()


class _WriteGuard:
    """``with lock.write():`` — the exclusive twin of :class:`_ReadGuard`."""

    __slots__ = ("_lock",)

    def __init__(self, lock: "RWLock") -> None:
        self._lock = lock

    def __enter__(self) -> "RWLock":
        self._lock.acquire_write()
        return self._lock

    def __exit__(self, *exc) -> None:
        self._lock.release_write()


class RWLock:
    """A writer-preferring reader–writer lock.

    Any number of readers may hold the lock concurrently; a writer holds it
    alone.  Acquisitions are not reentrant — a thread must not acquire the
    same lock twice (in either mode) without releasing in between.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def read(self) -> _ReadGuard:
        """``with lock.read():`` — shared acquisition."""
        return _ReadGuard(self)

    def write(self) -> _WriteGuard:
        """``with lock.write():`` — exclusive acquisition."""
        return _WriteGuard(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RWLock(readers={self._readers}, writer={self._writer_active}, "
            f"waiting={self._writers_waiting})"
        )
