"""The index-state upgrade chain (``repro.persist.upgrade``).

Format-1 states — layout-1 piece trees, PLSD's merge stage, the
consolidation phase and stage, B+-tree ``fanout`` keys, float64 cracking
keys — reach the loaders only through :func:`upgrade`; handed to
``load_state`` as they are, each is refused.  Damaged, an old state either
raises :class:`IndexStateError` or upgrades to a current one that loads and
answers like a scan.  A database whose checkpoint holds an old state
upgrades it on open and writes the current format on its next checkpoint.
"""

from __future__ import annotations

import base64
import copy
import json
import lzma

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import FullIndex
from repro.core.index import BaseIndex
from repro.core.query import Predicate
from repro.cracking import (
    AdaptiveAdaptiveIndexing,
    CoarseGranularIndex,
    ProgressiveStochasticCracking,
    StandardCracking,
    StochasticCracking,
)
from repro.errors import IndexStateError
from repro.persist import pager, upgrade as upgrade_module
from repro.persist.database import Database
from repro.persist.upgrade import upgrade
from repro.progressive.base import ProgressiveIndexBase
from repro.storage.column import Column
from tests.conftest import brute_force
from tests.test_progressive_golden import LAYOUT_1_CHECKPOINTS, MID_MERGE, build, column_data

CRACKING = (StandardCracking, StochasticCracking, ProgressiveStochasticCracking, CoarseGranularIndex,
            AdaptiveAdaptiveIndexing)


def as_format_1(state: dict) -> dict:
    return pager.decode_state(pager.encode_state({**state, "format": 1}))


def queried(index: BaseIndex, data: np.ndarray, queries: int, seed: int = 3) -> BaseIndex:
    rng = np.random.default_rng(seed)
    for _ in range(queries):
        low = data[int(rng.integers(0, data.size))].item()
        index.query(Predicate(low, low + (data.max() - data.min()) * 0.05))
    return index


def cracking_source(index_class, data: np.ndarray) -> dict:
    """A format-1 cracking state: float64 keys, each half below the integer
    key it stands for on an integer column (older pivots were fractional)."""
    state = as_format_1(queried(index_class(Column(data.copy())), data, 12).state_dict())
    cracker = state["family"]["cracker_index"]
    keys = cracker["keys"].astype(np.float64)
    if data.dtype.kind == "i":
        keys -= 0.5
    cracker.update(keys=keys, value_low=float(cracker["value_low"]), value_high=float(cracker["value_high"]))
    return state


def consolidation_source() -> dict:
    """A hand-made PB checkpoint in the consolidation phase and stage."""
    data = column_data("float64")
    index = build("PB", 0.25, data)
    while not index.converged:
        index.query(Predicate(-10.0, 10.0))
    state = as_format_1(index.state_dict())
    entered = state["lifecycle"]["transitions"][-1][0]
    state["lifecycle"] = {
        "phase": "consolidation",
        "transitions": [*state["lifecycle"]["transitions"][:-1], [entered, "consolidation"]],
        "queries": {**state["lifecycle"]["queries"], "consolidation": 2},
        "indexing_seconds": {**state["lifecycle"]["indexing_seconds"], "consolidation": 1e-6},
    }
    state["family"].update(stage="consolidation", copied=7, fanout=64)
    return state


def fanout_source() -> dict:
    data = column_data("int64")
    state = as_format_1(queried(FullIndex(Column(data.copy())), data, 2).state_dict())
    state["family"]["fanout"] = 64
    return state


def layout_1_sources() -> dict:
    sources = {}
    for (family, dtype, delta), checkpoints in LAYOUT_1_CHECKPOINTS.items():
        for checkpoint in checkpoints:
            if checkpoint["phase"] != "creation":
                sources[f"{family}-{dtype}-{delta}-{checkpoint['after']}"] = (
                    (family, delta, dtype), copy.deepcopy(checkpoint["state"]))
    for number, checkpoint in enumerate(json.loads(lzma.decompress(MID_MERGE.read_bytes()))["checkpoints"]):
        sources[f"PLSD-merge-{number}"] = (("PLSD", checkpoint["delta"], checkpoint["dtype"]),
                                           pager.decode_state(base64.b64decode(checkpoint["state"])))
    return sources


PAST_2_53 = 2**60 + np.random.default_rng(60).integers(0, 4_000, 4_000)

#: name -> (fresh index for the state, the column's values, the format-1 state).
SOURCES = {
    name: (lambda spec=spec: build(spec[0], spec[1], column_data(spec[2])), column_data(spec[2]), state)
    for name, (spec, state) in layout_1_sources().items()
}
SOURCES["PB-consolidation"] = (lambda: build("PB", 0.25, column_data("float64")), column_data("float64"),
                               consolidation_source())
SOURCES["FI-fanout"] = (lambda: FullIndex(Column(column_data("int64"))), column_data("int64"), fanout_source())
for index_class in CRACKING:
    for dtype in ("int64", "float64"):
        SOURCES[f"{index_class.name}-{dtype}"] = (
            lambda index_class=index_class, dtype=dtype: index_class(Column(column_data(dtype))),
            column_data(dtype), cracking_source(index_class, column_data(dtype)))
SOURCES["STC-past-2**53"] = (lambda: StochasticCracking(Column(PAST_2_53.copy())), PAST_2_53,
                             cracking_source(StochasticCracking, PAST_2_53))


def answers_like_a_scan(index: BaseIndex, data: np.ndarray, seed: int = 1) -> None:
    """Exact answers, to convergence for a progressive index (integer
    bounds on an integer column, so the scan compares exactly)."""
    rng = np.random.default_rng(seed)
    low, high = data.min().item(), data.max().item()
    width = (high - low) * 0.1 if data.dtype.kind == "f" else (high - low) // 10
    for number in range(600):
        start = rng.uniform(low, high) if data.dtype.kind == "f" else int(rng.integers(low, high + 1))
        predicate = Predicate(start, start + width)
        result, expected = index.query(predicate), brute_force(data, predicate)
        assert result.count == expected.count, (predicate, index.phase)
        if data.dtype.kind == "f":
            assert float(result.value_sum) == pytest.approx(float(expected.value_sum), rel=1e-9, abs=1e-6)
        else:
            assert int(result.value_sum) == int(expected.value_sum), (predicate, index.phase)
        if number >= 20 and (index.converged or not isinstance(index, ProgressiveIndexBase)):
            return
    raise AssertionError(f"{index.name} did not converge")


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_old_states_are_refused_as_they_are_and_resume_upgraded(name):
    make, data, state = SOURCES[name]
    state = copy.deepcopy(state)  # a loaded index refines the arrays in place
    with pytest.raises(IndexStateError):
        make().load_state(state)
    index = make()
    upgraded = upgrade(state, index)
    assert upgraded["format"] == BaseIndex.STATE_FORMAT
    assert upgrade(upgraded, index) is upgraded  # a current state passes untouched
    index.load_state(upgraded)
    answers_like_a_scan(index, data)


@pytest.mark.parametrize("name", [name for name in sorted(SOURCES) if not name.endswith("float64")])
def test_an_old_layout_stamped_current_is_refused(name):
    """A loader accepts only what its writer writes: the old layout under
    the current format stamp does not load."""
    make, _, state = SOURCES[name]
    with pytest.raises(IndexStateError):
        make().load_state({**copy.deepcopy(state), "format": BaseIndex.STATE_FORMAT})


def test_cracking_keys_move_into_the_column_dtype():
    _, data, state = SOURCES["STD-int64"]
    index = StandardCracking(Column(data.copy()))
    cracker = upgrade(state, index)["family"]["cracker_index"]
    assert cracker["keys"].dtype == np.int64
    assert np.array_equal(cracker["keys"], np.ceil(state["family"]["cracker_index"]["keys"]))
    assert (cracker["value_low"], cracker["value_high"]) == (int(data.min()), int(data.max()) + 1)


def test_cracking_keys_past_2_53_restart_unmaterialised():
    """Such keys were rounded; the index starts over, fresh."""
    make, _, state = SOURCES["STC-past-2**53"]
    upgraded = upgrade(state, make())
    assert upgraded["family"] == {"materialized": False, "rng_state": state["family"]["rng_state"]}
    assert upgraded["lifecycle"]["phase"] == "inactive"


def test_a_consolidation_checkpoint_upgrades_to_converged():
    make, _, state = SOURCES["PB-consolidation"]
    upgraded = upgrade(state, make())
    assert upgraded["family"].keys() == {"stage", "leaf_values", "pb_bounds"}
    assert upgraded["family"]["stage"] == "converged"
    lifecycle = upgraded["lifecycle"]
    assert lifecycle["phase"] == "converged" and lifecycle["transitions"][-1][1] == "converged"
    assert lifecycle["queries"]["converged"] == state["lifecycle"]["queries"].get("converged", 0) + 2


def test_an_upgrade_leaves_the_index_as_it_was():
    make, _, state = SOURCES["PMSD-int64-0.1-25"]
    index = make()
    before = dict(vars(index))
    upgrade(copy.deepcopy(state), index)
    assert vars(index).keys() == before.keys()
    assert all(vars(index)[key] is value for key, value in before.items())


# ----------------------------------------------------------------------
# Damaged old states: a typed error or a current state that answers exactly
# ----------------------------------------------------------------------
DAMAGE_VALUES = st.sampled_from(["x", None, True, 1.5, [], {}, -1, 0, 10**20, float("nan")])
DAMAGE_KINDS = ["drop", "retype", "shift", "truncate"]
#: Integer arrays whose entries are counts (the others hold column values).
COUNT_ARRAYS = ("positions", "start", "end", "progress", "worklist")


def paths(tree, path=()):
    """Every key path below ``tree`` (dicts and lists; arrays are leaves)."""
    if isinstance(tree, dict):
        for key in sorted(tree, key=str):
            yield path + (key,)
            yield from paths(tree[key], path + (key,))
    elif isinstance(tree, list):
        for position, item in enumerate(tree):
            yield path + (position,)
            yield from paths(item, path + (position,))


def damage_state(state: dict, kind: str, where: int, change: int, value) -> None:
    """Drop, retype, shift (a count) or truncate one entry of the parts of a
    state that an upgrade rewrites: the family payload and the lifecycle."""
    scope = {key: state.pop(key) for key in ("family", "lifecycle", "queries_executed") if key in state}
    found = list(paths(scope))
    path = found[where % len(found)]
    parent = scope
    for key in path[:-1]:
        parent = parent[key]
    key, target = path[-1], parent[path[-1]]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = value
    elif kind == "shift" and isinstance(target, int) and not isinstance(target, bool):
        parent[key] = target + change
    elif kind == "shift" and isinstance(target, np.ndarray) and target.size and key in COUNT_ARRAYS:
        parent[key] = target.copy()
        parent[key][where % target.size] += change
    elif kind == "truncate" and isinstance(target, (list, np.ndarray)) and len(target):
        parent[key] = target[: len(target) - 1 - where % 2]
    state.update(scope)


@settings(max_examples=300, deadline=None)
@example(source="PLSD-merge-0", damage=[("truncate", 40, 1, None)])
@given(
    source=st.sampled_from(sorted(SOURCES)),
    damage=st.lists(st.tuples(st.sampled_from(DAMAGE_KINDS), st.integers(0, 10**6),
                              st.sampled_from([-2, -1, 1, 2, 64]), DAMAGE_VALUES), min_size=1, max_size=2),
)
def test_damaged_old_states_upgrade_correctly_or_raise_typed(source, damage):
    """Whatever the damage, an old state ends in :class:`IndexStateError`
    (from the upgrade or the loader) or in a current state that loads and
    answers every query exactly — never another exception, never a silent
    wrong answer."""
    make, data, original = SOURCES[source]
    state = copy.deepcopy(original)
    for kind, where, change, value in damage:
        damage_state(state, kind, where, change, value)
    index = make()
    try:
        upgraded = upgrade(state, index)
        assert upgraded["format"] == BaseIndex.STATE_FORMAT
        index.load_state(upgraded)
    except IndexStateError:
        return
    answers_like_a_scan(index, data)


# ----------------------------------------------------------------------
# A database checkpoint is upgraded once
# ----------------------------------------------------------------------
def test_a_database_upgrades_an_old_checkpoint_once(tmp_path, monkeypatch):
    """``Database.open`` upgrades a layout-1 PQ checkpoint, which resumes
    exactly; the next checkpoint stores format 2, and a second open takes
    no upgrade step."""
    data = column_data("int64")
    state = SOURCES["PQ-int64-0.1-10"][2]  # the entry into refinement
    assert state["lifecycle"]["phase"] == "refinement" and "sorter" in state["family"]
    db = Database.create(tmp_path / "db", {"v": data})
    db.create_index("v", method="PQ", fixed_delta=0.1)
    db._checkpoints.write({"op_id": int(db._wal.next_op_id - 1), "columns": {"v": None}, "indexes": {"v": state}})
    db.close(checkpoint=False)

    db = Database.open(tmp_path / "db")
    index = db.session.index_for("v")
    assert index.phase.value == "refinement" and index.queries_executed == state["queries_executed"]
    answers_like_a_scan(index, data)
    db.checkpoint()
    assert db._checkpoints.load()["indexes"]["v"]["format"] == BaseIndex.STATE_FORMAT
    db.close(checkpoint=False)

    def no_step(state, index):
        raise AssertionError("a current checkpoint took an upgrade step")

    monkeypatch.setattr(upgrade_module, "_STEPS", {1: no_step})
    db = Database.open(tmp_path / "db")
    assert db.session.index_for("v").converged
    db.close(checkpoint=False)
