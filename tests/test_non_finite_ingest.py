"""NaN and ±inf are rejected at every ingest path, with the column named.

Range predicates, quantile cuts, zone maps and pivots assume totally ordered
values.  Admitted, a NaN gave silent wrong counts: a range-sharded table put
every row into one shard whose NaN zone map pruned it, the converged radix
indexes miscounted, and PQ's midpoint pivot over ``-inf`` was NaN.  Each
facade now raises :class:`InvalidColumnError` before anything is written, so
the data and the write-ahead log stay as they were.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Database, IndexingSession, Table, shard_table
from repro.errors import InvalidColumnError
from repro.persist.compress import write_compressed_column
from repro.storage.column import Column

SPECIALS = [np.nan, np.inf, -np.inf]


def dirty(special, rows=1_000):
    values = np.random.default_rng(7).uniform(0.0, 1.0, rows)
    values[rows // 3] = special
    return values


@pytest.mark.parametrize("special", SPECIALS)
def test_column_and_table_reject_non_finite_floats(special):
    with pytest.raises(InvalidColumnError, match="'ra'"):
        Column(dirty(special), name="ra")
    with pytest.raises(InvalidColumnError, match="'dec'"):
        Table({"ra": np.arange(1_000), "dec": dirty(special)})
    with pytest.raises(InvalidColumnError, match="'ra'"):
        Column(dirty(special).astype(np.float32), name="ra")  # widened first, then checked


def test_integer_and_finite_float_columns_are_accepted():
    Column(np.array([-(2**63), 2**63 - 1]), name="ints")
    Column(np.array([-1.7976931348623157e308, 1.7976931348623157e308, -0.0, 5e-324]), name="edges")


@pytest.mark.parametrize("compress", [False, True])
@pytest.mark.parametrize("special", SPECIALS)
def test_database_create_rejects_non_finite_floats(tmp_path, compress, special):
    with pytest.raises(InvalidColumnError, match="'ra'"):
        Database.create(str(tmp_path / "db"), {"ra": dirty(special)}, compress=compress)


@pytest.mark.parametrize("compress", [False, True])
def test_database_create_checks_a_paged_column_it_is_handed(tmp_path, compress):
    """A Column over a column file was never read whole by ``Column()``."""
    path = str(tmp_path / "dirty.col")
    write_compressed_column(path, dirty(np.nan), block_rows=128)
    paged = Column.from_file(path, name="ra")
    with pytest.raises(InvalidColumnError, match="'ra'"):
        Database.create(str(tmp_path / "db"), {"ra": paged}, compress=compress)
    clean = str(tmp_path / "clean.col")
    write_compressed_column(clean, dirty(0.5), block_rows=128)
    with Database.create(str(tmp_path / "ok"), {"ra": Column.from_file(clean, name="ra")},
                         compress=compress) as db:
        assert db.between("ra", 0.0, 1.0).count == 1_000


@pytest.mark.parametrize("special", SPECIALS)
def test_session_insert_and_update_reject_non_finite_floats(special):
    session = IndexingSession(Table({"ra": dirty(0.5)}))
    session.create_index("ra", method="PQ", budget_fraction=0.2)
    before = session.between("ra", 0.1, 0.2).count
    with pytest.raises(InvalidColumnError, match="'ra'"):
        session.insert([0.15, special], column_name="ra")
    with pytest.raises(InvalidColumnError, match="'ra'"):
        session.update("ra", 0.1, 0.2, special)
    assert session.between("ra", 0.1, 0.2).count == before
    assert len(session.table.column("ra")) == 1_000


def test_a_rejected_row_leaves_multi_column_tables_aligned():
    table = Table({"ra": np.arange(10), "dec": np.arange(10) * 0.5})
    with pytest.raises(InvalidColumnError, match="'dec'"):
        table.insert_rows({"ra": [10, 11], "dec": [1.0, np.nan]})
    assert len(table.column("ra")) == len(table.column("dec")) == 10
    assert table.column("ra").version == table.column("dec").version == 0


@pytest.mark.parametrize("special", SPECIALS)
def test_durable_insert_and_update_reject_and_roll_the_log_back(tmp_path, special):
    directory = str(tmp_path / "db")
    with Database.create(directory, {"ra": dirty(0.5)}) as db:
        with pytest.raises(InvalidColumnError, match="'ra'"):
            db.insert({"ra": [0.25, special]})
        with pytest.raises(InvalidColumnError, match="'ra'"):
            db.update("ra", 0.1, 0.2, special)
        db.insert({"ra": [0.15]})
        db.commit()
        expected = db.between("ra", 0.1, 0.2).count
    with Database.open(directory) as db:  # replay sees only the accepted insert
        assert db.between("ra", 0.1, 0.2).count == expected
        assert len(db.table.column("ra")) == 1_001


@pytest.mark.parametrize("kind", ["range", "hash"])
@pytest.mark.parametrize("special", SPECIALS)
def test_sharded_tables_reject_non_finite_floats(kind, special):
    table = Table({"ra": dirty(0.5), "dec": np.arange(1_000)})
    shard_table(table, "ra", 4, kind=kind)
    sharded = table.column("ra")
    with pytest.raises(InvalidColumnError, match="'ra'"):
        table.insert_rows({"ra": [0.5, special], "dec": [1, 2]})
    with pytest.raises(InvalidColumnError, match="'ra'"):
        sharded.insert([0.5, special])  # the driving column routes itself
    assert len(sharded) == len(table.column("dec")) == 1_000
    assert all(shard.version == 0 for shard in sharded.shards)


def test_shard_table_over_a_paged_column_rejects_non_finite_floats(tmp_path):
    path = str(tmp_path / "dirty.col")
    write_compressed_column(path, dirty(-np.inf), block_rows=128)
    table = Table({"ra": Column.from_file(path, name="ra")})
    with pytest.raises(InvalidColumnError, match="'ra'"):
        shard_table(table, "ra", 4)


def huge_unsigned(rows=1_000):
    """uint64 data with one value past the int64 range."""
    values = np.arange(rows, dtype=np.uint64)
    values[rows // 3] = 2**63 + 5
    return values


def test_uint64_values_past_int64_are_rejected_not_wrapped(tmp_path):
    with pytest.raises(InvalidColumnError, match="'ra'"):
        Column(np.array([1, 2**63 + 5, 3], dtype=np.uint64), name="ra")
    with pytest.raises(InvalidColumnError, match="'dec'"):
        Table({"ra": np.arange(1_000), "dec": huge_unsigned()})
    with pytest.raises(InvalidColumnError, match="'ra'"):
        Database.create(str(tmp_path / "db"), {"ra": huge_unsigned()})


def test_uint64_values_below_2_63_still_convert():
    column = Column(np.array([0, 7, 2**63 - 1], dtype=np.uint64), name="ra")
    assert column.dtype == np.int64 and column.data.tolist() == [0, 7, 2**63 - 1]


def test_inserts_of_uint64_values_past_int64_are_rejected(tmp_path):
    session = IndexingSession(Table({"ra": np.arange(1_000)}))
    session.create_index("ra", method="PQ", budget_fraction=0.2)
    with pytest.raises(InvalidColumnError, match="'ra'"):
        session.insert(np.array([5, 2**63], dtype=np.uint64), column_name="ra")
    session.insert(np.array([5, 2**63 - 1], dtype=np.uint64), column_name="ra")
    assert session.between("ra", 2**62, 2**63 - 1).count == 1
    table = Table({"ra": np.arange(1_000), "dec": np.arange(1_000)})
    shard_table(table, "ra", 4)
    with pytest.raises(InvalidColumnError, match="'ra'"):
        table.column("ra").insert(np.array([1, 2**64 - 1], dtype=np.uint64))
    with Database.create(str(tmp_path / "db"), {"ra": np.arange(1_000)}) as db:
        with pytest.raises(InvalidColumnError, match="'ra'"):
            db.insert({"ra": np.array([2**63 + 1], dtype=np.uint64)})
        assert len(db.table.column("ra")) == 1_000
