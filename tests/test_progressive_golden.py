"""Golden trace of the four progressive indexes, replayed against a fixture.

Each case is one family on one dtype under one ``FixedDelta``: a fresh index
over 4 096 rows answers a fixed query trace until it has converged.  The
fixture holds, per query, the phase the query arrived in, the δ it was
given, ``elements_indexed``, the answer (count and sum, the sum's exact bits)
and the predicted cost breakdown; and, for every phase entry, the encoded
checkpoint (``pager.encode_state(index.state_dict())``) taken right after the
query that entered it.

The recorded checkpoints are index-state format 1; each goes through
:func:`repro.persist.upgrade.upgrade` before it is compared or loaded.  The
replay checks three things on the current code:

* the whole trace, from a fresh index, query by query;
* every checkpoint the current code takes at a phase entry, against the
  upgraded recorded one, key for key and array for array (so a format-1
  payload of the current layout upgrades to exactly what the code writes);
* every upgraded recorded checkpoint loads into a fresh index, and the rest
  of the trace from there matches too.

The records were taken one seam call per piece; PQ, PMSD and PB now read a
run of pieces with one call, so their float64 sums may differ from the
recorded ones within ``REL_TOL`` (everything else, and PLSD entirely, is
exact).  Their checkpoints are the piece table's (layout 2); the layout-1
checkpoints the code before it took at the same queries live in
``progressive_pieces_v1.json.xz`` and must upgrade and resume to the
recorded continuation.

Separately, PLSD checkpoints taken in the merge stage that PLSD had before
its last generation became the index array must still restore, and answer
the rest of their trace exactly.  So must layout-1 checkpoints taken in the
consolidation phase the families had before they converged on the query
that finishes sorting: they load as converged.  The layout-1 continuations
were recorded by that code too; from its consolidation phase on, only their
answers must match.

Unfilled slots of a construction array hold whatever ``np.empty`` left there,
and they are persisted as they are; recording and replay both allocate those
arrays zeroed, so checkpoints compare exactly.  Nothing reads those slots.

Regenerate the fixture only for an intended behaviour change, with the code
whose behaviour it should pin::

    PYTHONPATH=src python tests/test_progressive_golden.py
"""

from __future__ import annotations

import base64
import json
import lzma
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.phase import IndexPhase
from repro.core.policy import FixedDelta
from repro.core.query import Predicate
from repro.errors import IndexStateError
from repro.persist import pager
from repro.persist.upgrade import upgrade
from repro.progressive import (
    ProgressiveBucketsort,
    ProgressiveQuicksort,
    ProgressiveRadixsortLSD,
    ProgressiveRadixsortMSD,
)
from repro.progressive.base import ProgressiveIndexBase
from repro.storage.column import Column

FIXTURE = Path(__file__).parent / "data" / "progressive_golden.json.xz"
#: PLSD checkpoints taken mid-way through the merge stage that used to drain
#: its last generation into the index array (int64 and float64, δ = 0.1),
#: recorded by that code: ``{"checkpoints": [{dtype, delta, after, state}]}``.
MID_MERGE = Path(__file__).parent / "data" / "plsd_mid_merge.json.xz"

#: Checkpoints of PQ, PMSD and PB in layout 1 (one tree per family: pivot
#: trees, a radix node forest, merge buckets), recorded by the code before
#: the piece table at the golden cases' checkpoints, each with the
#: continuation it resumed to (``resume``, or the case's ``records``).  An xz
#: of ``u32 header length | JSON header | state blobs``, the header
#: ``{"cases": [{family, dtype, delta, checkpoints: [{after, phase, length,
#: resume?}]}]}`` and the blobs in its order.
LAYOUT_1 = Path(__file__).parent / "data" / "progressive_pieces_v1.json.xz"

ROWS = 4_096
DELTAS = (0.1, 0.25)
DTYPES = ("int64", "float64")
#: Small fan-outs and thresholds, so every phase, pass and node state occurs.
FAMILIES = {
    "PQ": (ProgressiveQuicksort, {"sort_threshold": 64}),
    "PMSD": (ProgressiveRadixsortMSD, {"n_buckets": 8, "sort_threshold": 64}),
    "PB": (ProgressiveBucketsort, {"n_buckets": 8, "sort_threshold": 64}),
    "PLSD": (ProgressiveRadixsortLSD, {"n_buckets": 16}),
}
#: Queries after convergence, and the longest trace a case may need.
TAIL_QUERIES = 3
MAX_QUERIES = 600
BREAKDOWN_FIELDS = ("scan", "lookup", "indexing", "merge", "decompress")
REL_TOL = 1e-12


def column_data(dtype: str) -> np.ndarray:
    rng = np.random.default_rng(20261015)
    values = rng.integers(-6_000, 6_000, ROWS)
    if dtype == "float64":
        # Tenths: fractional, negative and duplicated values whose sums
        # depend on the order they are added in.
        return values / 10.0
    return values.astype(np.int64)


def query_trace(data: np.ndarray, count: int):
    """Points on present values, ranges of every width, and misses."""
    rng = np.random.default_rng(7)
    low_end, high_end = float(data.min()), float(data.max())
    trace = []
    for number in range(count):
        kind = number % 5
        if kind in (0, 3):
            value = data[int(rng.integers(0, data.size))].item()
            trace.append((value, value))
            continue
        if kind == 4 and number % 3 == 0:
            trace.append((high_end + 1, high_end + 50))
            continue
        low = float(rng.uniform(low_end - 10, high_end))
        width = (high_end - low_end) * float(rng.choice([0.002, 0.05, 0.3, 1.0]))
        if data.dtype.kind == "i":
            trace.append((math.floor(low), math.floor(low + width)))
        else:
            trace.append((low, low + width))
    return trace


def build(family: str, delta: float, data: np.ndarray):
    index_class, options = FAMILIES[family]
    return index_class(Column(data.copy()), budget=FixedDelta(delta), **options)


def record(index, low, high) -> list:
    """One query's observable behaviour, as JSON-able values."""
    result = index.query(Predicate(low, high))
    stats = index.last_stats
    breakdown = stats.predicted_breakdown
    value_sum = result.value_sum
    exact_sum = float(value_sum).hex() if isinstance(value_sum, (float, np.floating)) else int(value_sum)
    return [
        stats.phase.value,
        float(stats.delta),
        int(stats.elements_indexed),
        int(result.count),
        exact_sum,
        None if breakdown is None else [float(getattr(breakdown, f)) for f in BREAKDOWN_FIELDS],
    ]


def resume(case: dict, checkpoint: dict) -> list:
    """The records of the trace after ``checkpoint``, from a fresh index that
    loaded it."""
    index = build(case["family"], case["delta"], column_data(case["dtype"]))
    index.load_state(upgrade(pager.decode_state(base64.b64decode(checkpoint["state"])), index))
    assert index.phase.value == checkpoint["phase"]
    return [record(index, low, high) for low, high in case["trace"][checkpoint["after"]:]]


def run_case(family: str, dtype: str, delta: float) -> dict:
    data = column_data(dtype)
    trace = query_trace(data, MAX_QUERIES)
    index = build(family, delta, data)
    records, states, phases = [], [], []
    tail = TAIL_QUERIES
    for low, high in trace:
        records.append(record(index, low, high))
        states.append(pager.encode_state(index.state_dict()))
        phases.append(index.phase.value)
        if index.converged:
            tail -= 1
            if tail == 0:
                break
    assert index.converged, f"{family}/{dtype}/{delta} did not converge in {MAX_QUERIES} queries"
    # Every phase entry, the middle of creation, and the middle and the last
    # query of refinement (mid-way through the last pass for PLSD).
    chosen = {n for n in range(len(phases)) if n == 0 or phases[n] != phases[n - 1]}
    for phase in ("creation", "refinement"):
        numbers = [n for n, value in enumerate(phases) if value == phase]
        chosen.add(numbers[len(numbers) // 2])
        if phase == "refinement":
            chosen.add(numbers[-1])
    case = {
        "family": family,
        "dtype": dtype,
        "delta": delta,
        "trace": trace[: len(records)],
        "records": records,
        "checkpoints": [
            {"after": n + 1, "phase": phases[n], "state": base64.b64encode(states[n]).decode("ascii")}
            for n in sorted(chosen)
        ],
    }
    # A restore may legitimately redo work: a sorter node caught
    # mid-partition restarts it.  The continuation is stored where it is not
    # the uninterrupted trace's.
    for checkpoint in case["checkpoints"]:
        continued = resume(case, checkpoint)
        if continued != records[checkpoint["after"]:]:
            checkpoint["resume"] = continued
    return case


def zeroed_scratch(self, n_rows, dtype):
    return np.zeros(int(n_rows), dtype=np.dtype(dtype))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def load_cases() -> list:
    return json.loads(lzma.decompress(FIXTURE.read_bytes()))["cases"]


CASES = load_cases() if FIXTURE.exists() else []


def case_id(case) -> str:
    return f"{case['family']}-{case['dtype']}-{case['delta']}"


def assert_same_record(actual, expected, where, family="PLSD"):
    """Equal records; only the float64 sums of the families that answer
    through the piece table may differ, within ``REL_TOL`` of the recorded
    one — it reads runs of pieces with one seam call each, and the trace was
    recorded one call per piece."""
    if family != "PLSD" and isinstance(expected[4], str):
        assert actual[:4] == expected[:4], where
        assert float.fromhex(actual[4]) == pytest.approx(float.fromhex(expected[4]), rel=REL_TOL, abs=0.0), where
    else:
        assert actual[:5] == expected[:5], where
    if expected[5] is None:
        assert actual[5] is None, where
    else:
        assert actual[5] == pytest.approx(expected[5], rel=REL_TOL, abs=0.0), where


def assert_same_tree(actual, expected, path="state"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            assert_same_tree(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for position, (got, want) in enumerate(zip(actual, expected)):
            assert_same_tree(got, want, f"{path}[{position}]")
    elif isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray) and actual.dtype == expected.dtype, path
        assert np.array_equal(actual, expected), path
    else:
        assert actual == expected, path


@pytest.fixture
def zeroed(monkeypatch):
    monkeypatch.setattr(ProgressiveIndexBase, "_scratch_allocate", zeroed_scratch)


def test_fixture_covers_every_case():
    recorded = {(c["family"], c["dtype"], c["delta"]) for c in CASES}
    assert recorded == {(f, t, d) for f in FAMILIES for t in DTYPES for d in DELTAS}


@pytest.mark.usefixtures("zeroed")
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_trace_and_checkpoints_match_the_recording(case):
    data = column_data(case["dtype"])
    index = build(case["family"], case["delta"], data)
    checkpoints = {c["after"]: c for c in case["checkpoints"]}
    for number, ((low, high), expected) in enumerate(zip(case["trace"], case["records"]), 1):
        assert_same_record(record(index, low, high), expected, f"query {number}", case["family"])
        if number in checkpoints:
            assert index.phase.value == checkpoints[number]["phase"]
            recorded = pager.decode_state(base64.b64decode(checkpoints[number]["state"]))
            assert recorded["format"] == 1
            recorded = upgrade(recorded, build(case["family"], case["delta"], data))
            current = pager.decode_state(pager.encode_state(index.state_dict()))
            assert_same_tree(current, recorded, f"checkpoint after query {number}")
    assert index.converged


@pytest.mark.usefixtures("zeroed")
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_recorded_checkpoints_resume_the_trace(case):
    for checkpoint in case["checkpoints"]:
        start = checkpoint["after"]
        expected = checkpoint.get("resume", case["records"][start:])
        for number, (actual, want) in enumerate(zip(resume(case, checkpoint), expected), start + 1):
            where = f"query {number} after the checkpoint of query {start}"
            assert_same_record(actual, want, where, case["family"])


def layout_1_checkpoints() -> dict:
    raw = lzma.decompress(LAYOUT_1.read_bytes())
    at = 4 + int.from_bytes(raw[:4], "little")
    found = {}
    for case in json.loads(raw[4:at])["cases"]:
        for checkpoint in case["checkpoints"]:
            checkpoint["state"] = pager.decode_state(raw[at:at + checkpoint["length"]])
            at += checkpoint["length"]
        found[(case["family"], case["dtype"], case["delta"])] = case["checkpoints"]
    return found


LAYOUT_1_CHECKPOINTS = layout_1_checkpoints() if LAYOUT_1.exists() else {}


def assert_scan_answers(index, data, trace):
    """Every query of ``trace`` answers as a scan of ``data`` does."""
    for low, high in trace:
        result = index.query(Predicate(low, high))
        matched = data[(data >= low) & (data <= high)]
        assert result.count == matched.size
        if data.dtype.kind == "f":
            assert float(result.value_sum) == pytest.approx(float(matched.sum()), rel=REL_TOL, abs=1e-9)
        else:
            assert int(result.value_sum) == int(matched.sum())


def assert_same_continuation(actual, expected, where, family):
    """A record against one recorded by code that had a consolidation phase:
    from that phase on the index is converged, so only the answer must
    match."""
    if expected[0] in ("consolidation", "converged"):
        assert actual[0] == "converged" and actual[3:5] == expected[3:5], where
    else:
        assert_same_record(actual, expected, where, family)


@pytest.mark.usefixtures("zeroed")
@pytest.mark.parametrize("case", [c for c in CASES if c["family"] != "PLSD"], ids=case_id)
def test_layout_1_checkpoints_migrate_and_resume(case):
    """Every layout-1 checkpoint upgrades into piece-table rows and resumes to
    the continuation recorded for it; one taken in the consolidation phase
    upgrades to converged and answers the rest of its trace exactly.  The
    loader refuses each one as it was written."""
    checkpoints = LAYOUT_1_CHECKPOINTS[(case["family"], case["dtype"], case["delta"])]
    assert {c["phase"] for c in checkpoints} >= {"creation", "refinement", "consolidation", "converged"}
    data = column_data(case["dtype"])
    trace = query_trace(data, MAX_QUERIES)
    for checkpoint in checkpoints:
        family = checkpoint["state"]["family"]
        assert "layout" not in family and "pieces" not in family
        with pytest.raises(IndexStateError):
            build(case["family"], case["delta"], data).load_state({**checkpoint["state"], "format": 2})
        index = build(case["family"], case["delta"], data)
        index.load_state(upgrade(checkpoint["state"], index))
        start = checkpoint["after"]
        if checkpoint["phase"] in ("consolidation", "converged"):
            assert index.converged
            assert_scan_answers(index, data, trace[start:start + 2 * TAIL_QUERIES])
            continue
        assert index.phase.value == checkpoint["phase"]
        expected = checkpoint.get("resume", case["records"][start:])
        for number, ((low, high), want) in enumerate(zip(trace[start:], expected), start + 1):
            assert_same_continuation(record(index, low, high), want, f"query {number} after layout-1 query {start}",
                                     case["family"])
        assert index.converged


def test_mid_merge_plsd_checkpoints_still_restore():
    """The last generation such a checkpoint holds is sorted and complete: the
    upgrade adopts it and converges, and the rest of the trace is exact."""
    checkpoints = json.loads(lzma.decompress(MID_MERGE.read_bytes()))["checkpoints"]
    assert {c["dtype"] for c in checkpoints} == set(DTYPES)
    for checkpoint in checkpoints:
        data = column_data(checkpoint["dtype"])
        state = pager.decode_state(base64.b64decode(checkpoint["state"]))
        assert state["family"]["stage"] == "merge" and 0 < state["family"]["merge_position"] < ROWS
        with pytest.raises(IndexStateError):
            build("PLSD", checkpoint["delta"], data).load_state({**state, "format": 2})
        index = build("PLSD", checkpoint["delta"], data)
        index.load_state(upgrade(state, index))
        assert index.converged
        assert index.lifecycle.transitions[-1] == (state["queries_executed"], IndexPhase.CONVERGED)
        assert_scan_answers(index, data, query_trace(data, MAX_QUERIES)[checkpoint["after"]:])


if __name__ == "__main__":
    ProgressiveIndexBase._scratch_allocate = zeroed_scratch
    cases = [
        run_case(family, dtype, delta)
        for family in FAMILIES for dtype in DTYPES for delta in DELTAS
    ]
    FIXTURE.parent.mkdir(exist_ok=True)
    payload = json.dumps({"cases": cases}, separators=(",", ":")).encode()
    FIXTURE.write_bytes(lzma.compress(payload, preset=9 | lzma.PRESET_EXTREME))
    print(f"{FIXTURE}: {len(cases)} cases, {FIXTURE.stat().st_size} bytes")
