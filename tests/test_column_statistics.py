"""A column version's statistics: computed once, in one pass, shared.

Every index over a column reads its minimum and maximum (PQ's first pivot,
the radix key space, PB's outer bucket bounds, the cracker column's domain).
They come from the snapshot of the version the index pins, and a version has
one snapshot per process, so one ``kernels.minmax`` pass serves every index,
the live column's own ``min()``/``max()`` and every later snapshot of that
version.  Counted at the kernel seam, no timing, on both backends.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import Database, kernels
from repro.core.policy import FixedDelta
from repro.core.query import Predicate
from repro.engine.registry import create_index
from repro.storage.column import Column
from repro.storage.lazy import ChainArray

pytestmark = pytest.mark.usefixtures("kernel_backend")

FAMILIES = ("PQ", "PMSD", "PB", "PLSD", "STD", "AA")


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.<name>``; returns the list each call appends to."""
    calls: list = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_every_index_over_an_unwritten_column_shares_one_minmax_pass(monkeypatch):
    data = np.random.default_rng(4).integers(-10**6, 10**6, 50_000)
    column = Column(data)
    calls = count_calls(monkeypatch, kernels, "minmax")
    for name in FAMILIES:
        index = create_index(name, column, budget=FixedDelta(0.1))
        low, high = int(data[7]), int(data[7]) + 50_000
        assert index.query(Predicate(low, high)).count == np.count_nonzero((data >= low) & (data <= high))
    assert column.value_range() == (data.min(), data.max())
    assert len(calls) == 1


def test_minmax_gives_both_zeros_as_positive_zero():
    for values in (np.array([-0.0, 0.0, -0.0]), np.array([-0.0]), np.array([0.0, -0.0])):
        low, high = kernels.minmax(values)
        assert (np.signbit(low), np.signbit(high)) == (False, False)
    with pytest.raises(ValueError):
        kernels.minmax(np.empty(0, dtype=np.int64))


def test_a_new_index_sees_an_insert_above_the_max_and_an_old_one_keeps_its_version():
    data = np.random.default_rng(5).integers(0, 1_000, 20_000)
    column = Column(data)
    old = create_index("PQ", column, budget=FixedDelta(0.1))
    old.query(Predicate(10, 500))
    column.insert([5_000])
    new = create_index("PQ", column, budget=FixedDelta(0.1))
    assert (old.base.version, old.base.max()) == (0, data.max())
    assert (new.base.version, new.base.max()) == (column.version, 5_000)
    assert column.max() == 5_000 and column.snapshot(0).max() == data.max()
    expected = np.count_nonzero(data >= 900) + 1
    for _ in range(3):
        assert old.query(Predicate(900, 6_000)).count == expected
        assert new.query(Predicate(900, 6_000)).count == expected


def test_a_durable_write_is_materialised_once_and_described_once(tmp_path, monkeypatch):
    data = np.random.default_rng(6).integers(100, 10**6, 30_000)
    db = Database.create(str(tmp_path / "db"), {"v": data})
    try:
        db.insert({"v": [2 * 10**6, 7]})
        db.commit()
        materialised = count_calls(monkeypatch, Column, "_visible_view")
        passes = count_calls(monkeypatch, kernels, "minmax")
        chained = count_calls(monkeypatch, ChainArray, "min")
        column = db.table.column("v")
        assert column.value_range() == (7, 2 * 10**6)
        assert len(column.data) == data.size + 2
        db.create_index("v", method="PQ", fixed_delta=0.1)
        for _ in range(3):
            assert db.between("v", 0, 10**7).count == data.size + 2
        assert column.snapshot().max() == 2 * 10**6
        assert len(materialised) == 1
        assert len(passes) + len(chained) == 1
    finally:
        db.close(checkpoint=False)


def test_concurrent_readers_share_each_version_and_its_statistics():
    column = Column(np.arange(1_000, dtype=np.int64))
    for value in range(1_000, 1_040):
        column.insert([value])
    errors: list = []

    def read(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(300):
                version = int(rng.integers(0, column.version + 1))
                snapshot = column.snapshot(version)
                assert snapshot.version == version and len(snapshot.data) == 1_000 + version
                assert snapshot.value_range() == (0, 999 + version)
                assert column.value_range() == (0, 1_039)
        except Exception as error:  # reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read, args=(seed,)) for seed in range(6)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
            assert not reader.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, repr(errors[0])
