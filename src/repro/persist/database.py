"""The ``Database`` open/close/recover API over a persisted directory.

A :class:`Database` wraps an :class:`~repro.engine.session.IndexingSession`
with the durability subsystem::

    db = Database.create("/data/stars", {"ra": ra_values})
    db.create_index("ra", method="PQ", budget_fraction=0.2)
    db.insert({"ra": [123, 456]})
    db.commit()                  # WAL commit marker + fsync: now durable
    db.checkpoint()              # index state + delta stores -> checkpoint.bin
    db.close()

    db = Database.open("/data/stars")   # after restart / crash
    db.between("ra", 100, 200)          # warm index, exact answers

Layout of a database directory::

    catalog.json       table schema + per-index method/policy registration
    columns/<c>.col    mmap'd read-optimized base arrays (immutable)
    wal.log            CRC-framed redo log of delta-store operations
    checkpoint.bin     atomic snapshot of delta stores + index state

Recovery (:meth:`Database.open`) loads the catalog, memory-maps the column
bases, restores the delta stores from the newest checkpoint, replays the
committed WAL tail (records with ``op_id`` beyond the checkpoint watermark)
on top, and restores every checkpointed index mid-convergence via
``load_state`` — a restored progressive index resumes in its pre-restart
phase, never RAW, and any writes it has not folded yet flow through the
existing delta overlay / ``MERGE``-stage machinery on the next queries.
Indexes registered in the catalog but missing from the checkpoint (created
after the last checkpoint) are re-created fresh with their registered
budget policy.

Durability contract: an operation is durable iff a :meth:`commit` returned
after it.  Uncommitted operations — including a torn WAL tail from a crash
mid-append — are discarded by recovery.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Mapping, Optional

import numpy as np

from repro import kernels
from repro.baselines.full_index import FullIndex
from repro.baselines.full_scan import FullScan
from repro.core.calibration import CostConstants
from repro.core.index import BaseIndex
from repro.core.policy import policy_from_state, policy_state_dict
from repro.engine.registry import ALGORITHMS
from repro.engine.session import IndexingSession, _json_safe
from repro.errors import PersistenceError, RecoveryError
from repro.extensions.column_imprints import ProgressiveColumnImprints
from repro.extensions.progressive_hash import ProgressiveHashIndex
from repro.persist.checkpoint import CheckpointManager
from repro.persist.pager import ColumnPager, fsync_directory
from repro.persist.upgrade import upgrade
from repro.persist.wal import WriteAheadLog
from repro.storage.column import Column, require_finite
from repro.storage.lazy import is_lazy
from repro.storage.membudget import MemoryBudget
from repro.storage.table import Table

#: Catalog format stamp.
CATALOG_FORMAT = 1

CATALOG_FILE = "catalog.json"
WAL_FILE = "wal.log"
COLUMNS_DIR = "columns"
#: Scratch-spill directory used when the database runs under a memory budget.
SCRATCH_DIR = "scratch"

#: Every restorable algorithm, including the future-work extensions that the
#: registry does not expose under a paper acronym.
RESTORABLE_ALGORITHMS: Dict[str, type] = {
    **ALGORITHMS,
    "PHASH": ProgressiveHashIndex,
    "PIMP": ProgressiveColumnImprints,
    # FullScan registers under "FS" already; keep explicit aliases stable.
    "FS": FullScan,
    "FI": FullIndex,
}


LOCK_FILE = "LOCK"

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


def _acquire_directory_lock(directory: str):
    """Take the database's exclusive advisory lock (or raise).

    ``Database.open`` is *destructive* — recovery truncates uncommitted WAL
    frames — so two live handles (e.g. a writer plus ``python -m repro
    inspect``) must never share a directory: the second opener could cut
    frames the first is about to cover with a commit marker.  Returns the
    held lock file handle (kept open for the handle's lifetime), or ``None``
    where advisory locks are unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        return None
    handle = open(os.path.join(directory, LOCK_FILE), "a+")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise PersistenceError(
            f"database {directory!r} is locked by another process; close the "
            "other handle first (recovery is destructive, so concurrent "
            "opens are refused)"
        ) from None
    return handle


def _write_json_atomic(path: str, payload: dict) -> None:
    temp = path + ".tmp"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    fsync_directory(os.path.dirname(path) or ".")


class Database:
    """A durable, recoverable progressive-indexing database.

    Instances are built through :meth:`create` / :meth:`open`; the
    constructor wires already-recovered components together.
    """

    def __init__(
        self,
        directory: str,
        table: Table,
        session: IndexingSession,
        wal: WriteAheadLog,
        catalog: dict,
        checkpoints: CheckpointManager,
        lock=None,
    ) -> None:
        self.directory = str(directory)
        self._table = table
        self._session = session
        self._wal = wal
        self._catalog = catalog
        self._checkpoints = checkpoints
        self._lock = lock
        self._closed = False

    def _release_lock(self) -> None:
        if self._lock is not None:
            self._lock.close()
            self._lock = None

    # ------------------------------------------------------------------
    # Construction / recovery
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        columns: Mapping[str, object],
        name: str = "table",
        constants: CostConstants | None = None,
        memory_budget=None,
        compress: bool = False,
        block_rows: int | None = None,
    ) -> "Database":
        """Initialise a new database directory from in-memory columns.

        The column data becomes the immutable on-disk base arrays; the
        returned database reads them through memory maps.

        ``compress=True`` stores the bases in the RPCOL2 block-compressed
        format (frame-of-reference / dictionary blocks with per-block
        min/max headers); reads then stream through the shared block cache.
        ``memory_budget`` (bytes or a
        :class:`~repro.storage.membudget.MemoryBudget`) caps what the
        database holds resident — construction scratch, delta logs and
        overlay buffers spill into the directory's ``scratch/`` folder past
        the cap, so datasets far larger than the budget index to
        convergence with exact answers.
        """
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, CATALOG_FILE)):
            raise PersistenceError(
                f"directory {directory!r} already holds a database; use Database.open()"
            )
        pager = ColumnPager(os.path.join(directory, COLUMNS_DIR))
        catalog_columns = []
        for column_name, values in columns.items():
            # Normalise through Column so dtype coercion matches the engine.
            column = values if isinstance(values, Column) else Column(values, name=column_name)
            if column.delta is not None and column.delta.version > 0:
                raise PersistenceError(
                    f"column {column_name!r} carries delta-store writes; "
                    "Database.create() persists base data only"
                )
            if is_lazy(column.base_data):
                # Column() checks the arrays it is given; a paged base (a
                # Column over a column file) reaches the store unread.
                require_finite(column.base_data, column_name)
            pager.store(
                column_name,
                np.asarray(column.base_data),
                compress=bool(compress),
                block_rows=block_rows,
            )
            catalog_columns.append(
                {"name": str(column_name), "dtype": column.dtype.name, "rows": len(column)}
            )
        catalog = {
            "format": CATALOG_FORMAT,
            "table": str(name),
            "columns": catalog_columns,
            "indexes": {},
        }
        _write_json_atomic(os.path.join(directory, CATALOG_FILE), catalog)
        return cls._assemble(directory, catalog, constants, memory_budget)

    @classmethod
    def open(
        cls,
        directory: str,
        constants: CostConstants | None = None,
        memory_budget=None,
    ) -> "Database":
        """Open an existing database, recovering to the last durable state."""
        directory = str(directory)
        catalog_path = os.path.join(directory, CATALOG_FILE)
        if not os.path.exists(catalog_path):
            raise PersistenceError(f"directory {directory!r} holds no database catalog")
        with open(catalog_path, "r", encoding="utf-8") as handle:
            catalog = json.load(handle)
        if int(catalog.get("format", 0)) != CATALOG_FORMAT:
            raise PersistenceError(
                f"catalog format {catalog.get('format')!r} is not supported"
            )
        return cls._assemble(directory, catalog, constants, memory_budget)

    @classmethod
    def _assemble(
        cls,
        directory: str,
        catalog: dict,
        constants: CostConstants | None,
        memory_budget=None,
    ) -> "Database":
        # Lock before any recovery step: WAL open truncates uncommitted
        # frames, which must never race a live writer's handle.
        lock = _acquire_directory_lock(directory)
        try:
            return cls._assemble_locked(directory, catalog, constants, lock, memory_budget)
        except BaseException:
            if lock is not None:
                lock.close()
            raise

    @classmethod
    def _assemble_locked(
        cls,
        directory: str,
        catalog: dict,
        constants: CostConstants | None,
        lock,
        memory_budget=None,
    ) -> "Database":
        budget = MemoryBudget.coerce(
            memory_budget, spill_dir=os.path.join(directory, SCRATCH_DIR)
        )
        if budget is not None and budget.spill_dir is None:
            budget.spill_dir = os.path.join(directory, SCRATCH_DIR)
        pager = ColumnPager(os.path.join(directory, COLUMNS_DIR))
        cache = budget.block_cache if budget is not None else None
        table_columns: Dict[str, Column] = {}
        for spec in catalog["columns"]:
            column_name = str(spec["name"])
            array = pager.load(column_name, cache=cache)
            if array.size != int(spec["rows"]) or array.dtype.name != spec["dtype"]:
                raise RecoveryError(
                    f"column file for {column_name!r} does not match the catalog "
                    f"({array.size} x {array.dtype.name} vs "
                    f"{spec['rows']} x {spec['dtype']})"
                )
            table_columns[column_name] = Column(
                array, name=column_name, memory_budget=budget
            )
        table = Table(table_columns, name=catalog.get("table", "table"))

        checkpoints = CheckpointManager(directory)
        checkpoint = checkpoints.load()
        checkpoint_op = -1
        if checkpoint is not None:
            checkpoint_op = int(checkpoint["op_id"])
            for column_name, delta_state in checkpoint.get("columns", {}).items():
                if delta_state is not None:
                    table.column(column_name).restore_delta(delta_state)

        wal, committed = WriteAheadLog.open(os.path.join(directory, WAL_FILE))
        for record in committed:
            if record.op_id <= checkpoint_op:
                continue  # covered by the checkpoint (crash before WAL reset)
            if record.kind == "insert":
                table.insert_rows(record.columns)
            else:
                table.delete_rows(record.rids)

        session = IndexingSession(table, constants=constants, memory_budget=budget)
        index_states = {} if checkpoint is None else checkpoint.get("indexes", {})
        for column_name, entry in catalog.get("indexes", {}).items():
            state = index_states.get(column_name)
            column = table.column(column_name)
            if state is not None:
                index = cls._restore_index(column, state, constants)
            else:
                index = cls._fresh_index(column, entry, constants)
            session.attach_index(column_name, index)
        return cls(directory, table, session, wal, catalog, checkpoints, lock=lock)

    @staticmethod
    def _restore_index(
        column: Column, state: dict, constants: CostConstants | None
    ) -> BaseIndex:
        algorithm = str(state.get("algorithm", ""))
        index_class = RESTORABLE_ALGORITHMS.get(algorithm.upper())
        if index_class is None:
            raise RecoveryError(f"checkpoint names unknown algorithm {algorithm!r}")
        index = index_class(
            column, budget=policy_from_state(state["policy"]), constants=constants
        )
        index.load_state(upgrade(state, index))
        return index

    @staticmethod
    def _fresh_index(
        column: Column, entry: dict, constants: CostConstants | None
    ) -> BaseIndex:
        algorithm = str(entry.get("method", ""))
        index_class = RESTORABLE_ALGORITHMS.get(algorithm.upper())
        if index_class is None:
            raise RecoveryError(f"catalog names unknown algorithm {algorithm!r}")
        return index_class(
            column, budget=policy_from_state(entry["policy"]), constants=constants
        )

    # ------------------------------------------------------------------
    @property
    def session(self) -> IndexingSession:
        """The wrapped indexing session (reads are safe to issue directly)."""
        return self._session

    @property
    def table(self) -> Table:
        """The recovered table."""
        return self._table

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log (exposed for inspection and tests)."""
        return self._wal

    @property
    def memory_budget(self):
        """The active :class:`~repro.storage.membudget.MemoryBudget` (or ``None``)."""
        return self._session.memory_budget

    def _require_open(self) -> None:
        if self._closed:
            raise PersistenceError("this Database handle has been closed")

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def create_index(self, column_name: str, **kwargs) -> BaseIndex:
        """Create an index and register it in the catalog.

        Accepts the same arguments as
        :meth:`~repro.engine.session.IndexingSession.create_index`.  The
        catalog records the resolved algorithm and budget policy so a
        restart re-creates the index even before its first checkpoint
        (fresh — in its RAW state; a checkpoint makes it warm).
        """
        self._require_open()
        index = self._session.create_index(column_name, **kwargs)
        self._catalog.setdefault("indexes", {})[str(column_name)] = {
            "method": index.name,
            "policy": policy_state_dict(index.budget),
        }
        _write_json_atomic(os.path.join(self.directory, CATALOG_FILE), self._catalog)
        return index

    def drop_index(self, column_name: str) -> None:
        """Drop an index and unregister it from the catalog."""
        self._require_open()
        self._session.drop_index(column_name)
        if self._catalog.get("indexes", {}).pop(str(column_name), None) is not None:
            _write_json_atomic(os.path.join(self.directory, CATALOG_FILE), self._catalog)

    def index_for(self, column_name: str) -> BaseIndex:
        """The index on ``column_name`` (raises if none exists)."""
        return self._session.index_for(column_name)

    # ------------------------------------------------------------------
    # Concurrent serving (see repro.engine.shared / repro.serve)
    # ------------------------------------------------------------------
    def shared_engine(self):
        """The :class:`~repro.engine.shared.SharedEngine` over this database.

        Created on first use and cached: every reader view and the serving
        layer must share ONE engine (one write gate, one scheduler, one
        committed-version map) per open database.  The exclusive directory
        flock taken by :meth:`open`/:meth:`create` already guarantees no
        *other process* is attached, so in-process concurrent readers under
        this engine are the only readers, period.
        """
        self._require_open()
        engine = getattr(self, "_engine", None)
        if engine is None:
            from repro.engine.shared import SharedEngine

            engine = SharedEngine.for_database(self)
            self._engine = engine
        return engine

    def serve(self, address=None, **kwargs):
        """Build (without starting) a query server over this database."""
        from repro.serve.server import QueryServer

        return QueryServer(engine=self.shared_engine(), address=address, **kwargs)

    # ------------------------------------------------------------------
    # Writes (logged ahead, applied to the delta stores, durable on commit)
    # ------------------------------------------------------------------
    def insert(self, values, column_name: Optional[str] = None) -> np.ndarray:
        """Insert rows; returns their stable row ids (durable after commit)."""
        self._require_open()
        if isinstance(values, Mapping):
            arrays = {
                str(name): np.atleast_1d(np.asarray(item)) for name, item in values.items()
            }
        else:
            target = column_name or self._session._single_column_for_write("insert")
            self._table.column(target)  # raises UnknownColumnError when absent
            arrays = {str(target): np.atleast_1d(np.asarray(values))}
        return self._logged(
            lambda: self._wal.append_insert(arrays),
            lambda: self._table.insert_rows(arrays, handle=self._session),
        )

    def delete(self, column_name: str, low, high=None) -> int:
        """Delete every row whose ``column_name`` value lies in ``[low, high]``."""
        self._require_open()
        if high is None:
            high = low
        rids = self._table.column(column_name).rids_where(low, high)
        if rids.size == 0:
            return 0
        self._logged(
            lambda: self._wal.append_delete(rids),
            lambda: self._table.delete_rows(rids, handle=self._session),
        )
        return int(rids.size)

    def update(self, column_name: str, low, high, value) -> int:
        """Set ``column_name`` to ``value`` for every row in ``[low, high]``.

        Logged and applied as the engine's native insert + delete pair
        (:meth:`~repro.storage.table.Table.update_plan`), so replay
        reproduces the exact same stable-rid assignment.  Each half is a
        separate logged step: the WAL always equals the applied history,
        even if the second half fails after the first was applied.
        """
        self._require_open()
        rids, replacements = self._table.update_plan(column_name, low, high, value)
        if rids.size == 0:
            return 0
        self._logged(
            lambda: self._wal.append_insert(replacements),
            lambda: self._table.insert_rows(replacements, handle=self._session),
        )
        self._logged(
            lambda: self._wal.append_delete(rids),
            lambda: self._table.delete_rows(rids, handle=self._session),
        )
        return int(rids.size)

    def _logged(self, log, apply):
        """Append to the WAL, then apply; roll the log back if apply fails.

        The rollback keeps the log exactly equal to the applied history, so
        a later commit marker can never make a rejected operation durable.
        """
        handle = self._wal._handle
        offset = handle.tell()
        op_id = self._wal.next_op_id
        pending = self._wal.pending_ops
        log()
        try:
            return apply()
        except Exception:
            handle.flush()
            handle.truncate(offset)
            self._wal.next_op_id = op_id
            self._wal.pending_ops = pending
            raise

    def commit(self) -> None:
        """Make every operation since the last commit durable (fsync)."""
        self._require_open()
        self._wal.commit()
        self._session.commit_writes()

    # ------------------------------------------------------------------
    # Reads (delegate to the session; they advance index construction)
    # ------------------------------------------------------------------
    def between(self, column_name: str, low, high):
        """``SELECT SUM(col), COUNT(*) WHERE col BETWEEN low AND high``."""
        self._require_open()
        return self._session.between(column_name, low, high)

    def equals(self, column_name: str, value):
        """Point-query variant of :meth:`between`."""
        self._require_open()
        return self._session.equals(column_name, value)

    def execute_batch(self, queries, column_name: Optional[str] = None):
        """Batched range queries (see ``IndexingSession.execute_batch``)."""
        self._require_open()
        return self._session.execute_batch(queries, column_name=column_name)

    def where(self, predicates: Mapping) :
        """Multi-column conjunctions (see ``IndexingSession.where``)."""
        self._require_open()
        return self._session.where(predicates)

    # ------------------------------------------------------------------
    # Checkpoint / close
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Publish a checkpoint and truncate the WAL.

        Pending uncommitted writes are committed first — a checkpoint is by
        definition a durable point.  After the atomic publish the WAL is
        reset; a crash between the two is safe (recovery skips WAL records
        at or below the checkpoint's ``op_id`` watermark).
        """
        self._require_open()
        if self._wal.pending_ops:
            self.commit()
        columns = {}
        for column_name in self._table.column_names:
            delta = self._table.column(column_name).delta
            columns[str(column_name)] = None if delta is None else delta.state_dict()
        indexes = {
            column_name: index.state_dict()
            for column_name, index in self._session.indexes().items()
        }
        self._checkpoints.write(
            {
                "op_id": int(self._wal.next_op_id - 1),
                "columns": columns,
                "indexes": indexes,
            }
        )
        self._wal.reset()

    def close(self, checkpoint: bool = True) -> None:
        """Gracefully close the database (checkpointing by default).

        ``checkpoint=True`` is a full graceful shutdown: pending writes are
        committed (a checkpoint is a durable point by definition) and the
        index state published.  ``checkpoint=False`` closes without
        promoting anything: operations never covered by a ``commit()`` stay
        uncommitted and the next recovery discards them — the documented
        durable-iff-committed contract holds on every path.
        """
        if self._closed:
            return
        if checkpoint:
            self.checkpoint()
        self._wal.close()
        if self.memory_budget is not None:
            self.memory_budget.trim()  # closes the spill files kept for reuse
        self._release_lock()
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An exception aborts the logical transaction: skip the checkpoint
        # and leave uncommitted operations undurable.  Work that was
        # commit()ed is already on disk via the WAL.
        self.close(checkpoint=exc_type is None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Session status plus durability counters (JSON-serializable)."""
        self._require_open()
        checkpoint = self._checkpoints.summary()
        return _json_safe(
            {
                "directory": self.directory,
                "table": self._catalog.get("table"),
                "rows": len(self._table),
                "columns": {
                    name: {
                        "dtype": self._table.column(name).dtype.name,
                        "base_rows": self._table.column(name).base_size,
                        "visible_rows": len(self._table.column(name)),
                        "mapped": self._table.column(name).is_mapped,
                        "write_version": self._table.column(name).version,
                    }
                    for name in self._table.column_names
                },
                "wal": {
                    "path": os.path.join(self.directory, WAL_FILE),
                    "size_bytes": self._wal.size_bytes(),
                    "next_op_id": self._wal.next_op_id,
                    "pending_ops": self._wal.pending_ops,
                },
                "checkpoint": checkpoint,
                "memory": self._session.memory_status(),
                "kernels": kernels.info(),
                "indexes": self._session.status(),
            }
        )

    def stats(self) -> dict:
        """One-call telemetry bundle: :meth:`status` plus the metrics registry.

        ``status`` describes the database's *shape* (tables, indexes,
        durability state); ``stats`` adds the live observability snapshot —
        every counter, gauge and histogram currently registered in
        :mod:`repro.obs` — so a caller can poll a single method for both.
        """
        from repro import obs

        report = self.status()
        report["metrics"] = obs.metrics().snapshot()
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Database(directory={self.directory!r}, rows={len(self._table)})"
