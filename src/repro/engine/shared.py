"""Shared engine: one progressive-index session served to many clients.

:class:`~repro.engine.session.IndexingSession` is a single-client API — its
queries mutate index state freely and always answer at the column's *live*
version.  This module splits that into the pieces a concurrent service
needs:

:class:`SharedEngine`
    Owns the session (optionally the :class:`~repro.persist.database.Database`
    wrapping it for WAL-backed writes), the engine-wide **write gate** (an
    RW lock: writers append to the delta stores exclusively, all query
    execution holds it shared — so a query never observes a column version
    moving underneath it), the map of *committed* snapshot versions, and
    the :class:`~repro.serve.scheduler.ProgressiveScheduler` that serializes
    index mutation and admits per-class indexing budgets.

:class:`ReaderView`
    A per-client MVCC view pinned to the committed versions at creation (or
    last :meth:`~ReaderView.refresh`).  Reads are answered *exactly* at the
    pinned versions: structural answers — which track the live column or the
    index's absorbed watermark (sorted base plus sorted side buffers) — are
    moved to the pinned version with a delta-store **window correction**:
    for aggregates, the answer at version ``V`` equals the answer at
    watermark ``W`` plus/minus the net (sum, count) of the writes in the seq
    window between them — only the unabsorbed tail, not every write since
    the last fold.  Uncommitted
    writer rows lie beyond every pinned version, so readers can never see
    them (no phantom deltas).

:class:`WriterHandle`
    The single writer.  Writes go through the engine's write gate
    exclusively (and through the WAL when the engine wraps a database);
    :meth:`~WriterHandle.commit` makes them durable and advances the
    committed versions new reader views pin.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.overlay import _predicated_delta
from repro.core.query import ConjunctionResult, Predicate, QueryResult, search_sorted_many
from repro.engine.session import IndexingSession
from repro.errors import ConcurrencyError, InvalidColumnError
from repro.serve.sync import RWLock


# ----------------------------------------------------------------------
# Version-window corrections
# ----------------------------------------------------------------------
def version_correction(delta, low, high, answered_at: int, pinned: int):
    """Move an exact-at-``answered_at`` aggregate to version ``pinned``.

    Returns the :class:`~repro.core.query.QueryResult` correction to *add*
    (``None`` when nothing changes).  Works in both directions: when the
    answer is ahead of the pinned version (the usual case — the structure
    folded or queried newer writes), the net effect of the window
    ``(pinned, answered_at]`` is subtracted; when it is behind, the window
    ``(answered_at, pinned]`` is added.  Aggregate queries make equal
    values interchangeable, which is what makes the correction exact.
    """
    if delta is None or answered_at == pinned:
        return None
    if pinned > answered_at:
        sign, after, upto = 1, answered_at, pinned
    else:
        sign, after, upto = -1, pinned, answered_at
    inserts = delta.insert_window(after, upto)
    deletes = delta.delete_window(after, upto)
    ins_sum, ins_count = _predicated_delta(inserts, low, high)
    del_sum, del_count = _predicated_delta(deletes, low, high)
    count = sign * (ins_count - del_count)
    value_sum = sign * (ins_sum - del_sum)
    if count == 0 and value_sum == 0:
        return None
    return QueryResult(value_sum, count)


def version_correction_many(delta, lows, highs, answered_at: int, pinned: int, answered):
    """Batch form of :func:`version_correction`.

    ``answered`` is the ``(sums, counts)`` pair exact at ``answered_at``;
    returns corrected copies exact at ``pinned``.  The window values are
    sorted once and aggregated with the shared ``searchsorted`` + prefix-sum
    primitive, so the correction is vectorized across the whole batch.
    """
    sums, counts = answered
    if delta is None or answered_at == pinned:
        return np.array(sums), np.array(counts, dtype=np.int64)
    if pinned > answered_at:
        sign, after, upto = 1, answered_at, pinned
    else:
        sign, after, upto = -1, pinned, answered_at
    sums = np.array(sums)
    counts = np.array(counts, dtype=np.int64)
    inserts = np.sort(delta.insert_window(after, upto))
    deletes = np.sort(delta.delete_window(after, upto))
    if inserts.size:
        add_sums, add_counts, _ = search_sorted_many(inserts, lows, highs)
        sums += sign * add_sums
        counts += sign * add_counts
    if deletes.size:
        sub_sums, sub_counts, _ = search_sorted_many(deletes, lows, highs)
        sums -= sign * sub_sums
        counts -= sign * sub_counts
    return sums, counts


# ----------------------------------------------------------------------
class SharedEngine:
    """The concurrently shared core of a query service.

    Parameters
    ----------
    session:
        The :class:`~repro.engine.session.IndexingSession` to share.  A
        table / column / array is also accepted and wrapped.
    database:
        Optional :class:`~repro.persist.database.Database` owning the
        session; when given, writes and commits route through it (WAL-ahead)
        instead of the bare session.
    scheduler:
        Optional pre-configured
        :class:`~repro.serve.scheduler.ProgressiveScheduler`; one with the
        default connection classes is created otherwise.
    """

    def __init__(self, session, database=None, scheduler=None) -> None:
        if not isinstance(session, IndexingSession):
            session = IndexingSession(session)
        self._session = session
        self._database = database
        if scheduler is None:
            # Local import: repro.serve imports this module for its server
            # and views, so the dependency must stay one-way at import time.
            from repro.serve.scheduler import ProgressiveScheduler

            scheduler = ProgressiveScheduler()
        self.scheduler = scheduler
        #: Engine-wide write gate (see module docstring).
        self.gate = RWLock()
        self._writer_lock = threading.Lock()
        self._committed: Dict[str, int] = {
            name: session.table.column(name).version
            for name in session.table.column_names
        }

    # ------------------------------------------------------------------
    @classmethod
    def for_database(cls, database, scheduler=None) -> "SharedEngine":
        """Wrap an open :class:`~repro.persist.database.Database`."""
        return cls(database.session, database=database, scheduler=scheduler)

    @property
    def session(self) -> IndexingSession:
        """The underlying (single-client) session."""
        return self._session

    @property
    def database(self):
        """The database backing writes, or ``None`` for in-memory engines."""
        return self._database

    def committed_versions(self) -> Dict[str, int]:
        """Snapshot of the per-column committed versions."""
        with self.gate.read():
            return dict(self._committed)

    # ------------------------------------------------------------------
    def reader(self, connection_class: str = "interactive") -> "ReaderView":
        """A new MVCC reader view pinned at the current committed versions."""
        return ReaderView(self, connection_class)

    def acquire_writer(self) -> "WriterHandle":
        """Attach the single writer; raises if one is already active."""
        if not self._writer_lock.acquire(blocking=False):
            raise ConcurrencyError(
                "another writer is already attached; the serving layer is "
                "single-writer — release it (or wait for its disconnect) first"
            )
        return WriterHandle(self)

    def _release_writer(self) -> None:
        self._writer_lock.release()

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """JSON-safe engine status: per-index state plus scheduler counters."""
        with self.gate.read():
            report = {
                "committed_versions": dict(self._committed),
                "indexes": self._session.status(),
            }
        report["scheduler"] = self.scheduler.stats()
        return report


# ----------------------------------------------------------------------
class ReaderView:
    """A per-client read-only view pinned to committed snapshot versions."""

    def __init__(self, engine: SharedEngine, connection_class: str = "interactive") -> None:
        table = engine.session.table
        for name in table.column_names:
            if not hasattr(table.column(name), "snapshot"):
                raise InvalidColumnError(
                    f"column {name!r} is a {type(table.column(name)).__name__}: a "
                    "reader view pins per-column snapshots, which it does not "
                    "provide — serve an unsharded table, or read through the session"
                )
        self._engine = engine
        self._class = engine.scheduler.class_named(connection_class)
        self._pinned: Dict[str, int] = {}
        self.refresh()

    # ------------------------------------------------------------------
    @property
    def connection_class(self):
        """The :class:`~repro.serve.connection.ConnectionClass` of this view."""
        return self._class

    def refresh(self) -> Dict[str, int]:
        """Re-pin at the current committed versions; returns them."""
        self._pinned = self._engine.committed_versions()
        return dict(self._pinned)

    def pinned_versions(self) -> Dict[str, int]:
        """The per-column versions this view is pinned to."""
        return dict(self._pinned)

    def snapshot_version(self, column_name: str) -> int:
        """The pinned version of ``column_name``."""
        return self._pinned.get(column_name, 0)

    # ------------------------------------------------------------------
    def between(self, column_name: str, low, high) -> QueryResult:
        """``SELECT SUM(col), COUNT(*) WHERE col BETWEEN low AND high``,
        exact at this view's pinned snapshot version."""
        if low > high:
            return QueryResult.empty()
        engine = self._engine
        session = engine.session
        column = session.table.column(column_name)
        pinned = self.snapshot_version(column_name)
        with engine.gate.read():
            index = session.live_index_for(column_name)
            if index is None:
                value_sum, count = column.snapshot(pinned).scan_range(low, high)
                return QueryResult(value_sum, count)
            scheduler = engine.scheduler
            structural = scheduler.read_structural(index, low, high)
            if structural is not None:
                answered, watermark = structural
                result = QueryResult(*answered)
                if watermark == pinned:
                    return result
                correction = version_correction(
                    column.delta, low, high, watermark, pinned
                )
            else:
                live = column.version
                predicate = Predicate(low, high)
                result = scheduler.run_serialized(
                    index, self._class, column_name, lambda: index.query(predicate)
                )
                correction = version_correction(column.delta, low, high, live, pinned)
            return result if correction is None else result + correction

    def equals(self, column_name: str, value) -> QueryResult:
        """Point-query variant of :meth:`between`."""
        return self.between(column_name, value, value)

    # ------------------------------------------------------------------
    def search_many(self, column_name: str, lows, highs):
        """Answer a batch of ranges, every answer exact at the pinned version.

        Returns ``(sums, counts)`` arrays aligned with the input bounds.
        """
        lows = np.atleast_1d(np.asarray(lows))
        highs = np.atleast_1d(np.asarray(highs))
        engine = self._engine
        session = engine.session
        column = session.table.column(column_name)
        pinned = self.snapshot_version(column_name)
        with engine.gate.read():
            index = session.live_index_for(column_name)
            if index is None:
                return self._scan_batch(column, pinned, lows, highs)
            scheduler = engine.scheduler
            structural = scheduler.read_structural(index, lows, highs)
            if structural is not None:
                answered, watermark = structural
                return version_correction_many(
                    column.delta, lows, highs, watermark, pinned, answered
                )
            live = column.version

            def run():
                answered = index.search_many(lows, highs)
                if answered is not None:
                    return answered
                # Mid-construction family without vectorized answering yet:
                # drive it per query (construction advances under the lane).
                sums, counts = [], []
                for low, high in zip(lows, highs):
                    result = index.query(Predicate(low, high))
                    sums.append(result.value_sum)
                    counts.append(result.count)
                return np.asarray(sums), np.asarray(counts, dtype=np.int64)

            answered = scheduler.run_serialized(index, self._class, column_name, run)
            return version_correction_many(
                column.delta, lows, highs, live, pinned, answered
            )

    @staticmethod
    def _scan_batch(column, pinned: int, lows, highs):
        """Predicated snapshot scans for batches on unindexed columns."""
        snapshot = column.snapshot(pinned)
        sums, counts = [], []
        for low, high in zip(lows, highs):
            value_sum, count = snapshot.scan_range(low, high)
            sums.append(value_sum)
            counts.append(count)
        return np.asarray(sums), np.asarray(counts, dtype=np.int64)

    # ------------------------------------------------------------------
    def where(self, predicates: Mapping) -> ConjunctionResult:
        """Multi-column conjunction, exact at the pinned versions.

        Table writes are row-aligned across columns (every commit advances
        all column versions in lockstep), so the per-column snapshots at the
        pinned versions describe the same row set and vectorized masks over
        them intersect correctly.
        """
        if not predicates:
            raise ConcurrencyError("where() requires at least one column predicate")
        engine = self._engine
        session = engine.session
        with engine.gate.read():
            snapshots = {}
            for column_name, pair in predicates.items():
                column = session.table.column(column_name)  # validates the name
                low, high = pair
                if low > high:
                    return ConjunctionResult.empty(predicates.keys())
                snapshots[column_name] = (
                    low,
                    high,
                    column.snapshot(self.snapshot_version(column_name)),
                )
            mask: Optional[np.ndarray] = None
            for column_name, (low, high, snapshot) in snapshots.items():
                data = snapshot.data
                column_mask = (data >= low) & (data <= high)
                mask = column_mask if mask is None else (mask & column_mask)
                if not mask.any():
                    return ConjunctionResult.empty(predicates.keys())
            count = int(np.count_nonzero(mask))
            value_sums = {
                name: snapshots[name][2].data[mask].sum() for name in snapshots
            }
            return ConjunctionResult(count, value_sums, None)


# ----------------------------------------------------------------------
class WriterHandle:
    """The engine's single writer: delta-store appends plus commit.

    Obtained via :meth:`SharedEngine.acquire_writer`; :meth:`release` (or
    the server's connection teardown) frees the slot for the next writer.
    """

    def __init__(self, engine: SharedEngine) -> None:
        self._engine = engine
        self._active = True

    def _backend(self):
        engine = self._require_active()
        return engine.database if engine.database is not None else engine.session

    def _require_active(self) -> SharedEngine:
        if not self._active:
            raise ConcurrencyError("this writer handle has been released")
        return self._engine

    # ------------------------------------------------------------------
    def insert(self, values, column_name: Optional[str] = None) -> np.ndarray:
        """Insert rows (WAL-ahead when the engine wraps a database)."""
        engine = self._require_active()
        with engine.gate.write():
            return self._backend().insert(values, column_name)

    def delete(self, column_name: str, low, high=None) -> int:
        """Delete every row whose ``column_name`` value lies in ``[low, high]``."""
        engine = self._require_active()
        with engine.gate.write():
            return self._backend().delete(column_name, low, high)

    def update(self, column_name: str, low, high, value) -> int:
        """Set ``column_name`` to ``value`` for every row in ``[low, high]``."""
        engine = self._require_active()
        with engine.gate.write():
            return self._backend().update(column_name, low, high, value)

    def commit(self) -> Dict[str, int]:
        """Commit pending writes and advance the visible snapshot versions.

        Returns the new committed versions — what reader views pin on their
        next :meth:`~ReaderView.refresh`.
        """
        engine = self._require_active()
        with engine.gate.write():
            backend = self._backend()
            if engine.database is not None:
                backend.commit()
            else:
                backend.commit_writes()
            session = engine.session
            engine._committed = {
                name: session.table.column(name).version
                for name in session.table.column_names
            }
            return dict(engine._committed)

    def release(self) -> None:
        """Detach this writer, letting another connection take the slot."""
        if self._active:
            self._active = False
            self._engine._release_writer()
