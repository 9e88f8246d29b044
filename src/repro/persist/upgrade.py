"""Older index states, upgraded to the format the loaders read.

Every index state carries ``format`` (``BaseIndex.STATE_FORMAT``), and
``BaseIndex.load_state`` reads the current one only, as the writers write it.
:func:`upgrade` brings an older state there one step per format;
``Database._restore_index`` runs it just before ``load_state``, and the next
checkpoint writes the current format, so a checkpoint is upgraded once.
Format 1 -> 2:

* the ``consolidation`` phase (the index was sorted already) reads as
  ``converged``, its counts and seconds added to converged's;
* a progressive ``consolidation`` stage becomes ``converged`` over its sorted
  array, and PLSD's ``merge`` stage ``converged`` over its last generation
  (sorted and complete), entered at the checkpoint's query; PLSD's
  ``passes`` stage is named ``construction``, as every family's is; the
  B+-tree ``fanout`` key (FI's too) is dropped;
* a layout-1 construction payload (PQ's pivot tree, PMSD's radix node
  forest, PB's per-bucket merge states) becomes piece-table rows;
* cracking keys move from float64 into the column's dtype (``ceil`` on an
  integer column); integer keys at or past 2**53 were rounded, and answered
  wrong already, so such an index restarts unmaterialised.

An upgrade reads the index's parameters and the snapshot the state was built
over, and never changes the index; damage raises ``IndexStateError``.
"""

from __future__ import annotations

import copy
import math
from collections import deque

import numpy as np

from repro.core.index import BaseIndex
from repro.cracking.base import CrackingIndexBase
from repro.errors import PAYLOAD_ERRORS, IndexStateError
from repro.progressive import ProgressiveBucketsort, ProgressiveQuicksort, ProgressiveRadixsortMSD
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.pieces import COPYING, LAYOUT, PENDING, SCATTERING, SORTED, SPLIT, WAITING, PieceTable


def upgrade(state: dict, index: BaseIndex) -> dict:
    """``state`` in the current format, for loading into ``index`` (fresh,
    over the column the state was taken from).  A current state is returned
    as it is; one of a format no step knows is left to ``load_state`` to
    refuse."""
    try:
        while state["format"] in _STEPS:
            state = _STEPS[state["format"]](state, index)
    except PAYLOAD_ERRORS as error:
        raise IndexStateError(f"cannot upgrade the {index.name} state: {error!r}") from error
    return state


# ----------------------------------------------------------------------
# Format 1 -> 2
# ----------------------------------------------------------------------
def _from_format_1(state: dict, index: BaseIndex) -> dict:
    family = {key: value for key, value in state["family"].items() if key != "fanout"}
    upgraded = {**state, "format": 2, "lifecycle": _without_consolidation(state["lifecycle"]), "family": family}
    if isinstance(index, ProgressiveIndexBase):
        # The families' structures derive from the snapshot load_state pins.
        view = copy.copy(index)
        view._column = index._pinned_column(state)
        view.__dict__.pop("_keyspace", None)
        _progressive(upgraded, view)
    elif isinstance(index, CrackingIndexBase) and family["materialized"]:
        _cracking(upgraded, index)
    return upgraded


def _converged(name: str) -> str:
    return "converged" if name == "consolidation" else name


def _without_consolidation(lifecycle: dict) -> dict:
    transitions = []
    for query, name in lifecycle["transitions"]:
        if not transitions or transitions[-1][1] != _converged(name):
            transitions.append([query, _converged(name)])
    totals = {"queries": {}, "indexing_seconds": {}}
    for key, total in totals.items():
        for name, value in lifecycle[key].items():
            total[_converged(name)] = total.get(_converged(name), 0) + value
    return {"phase": _converged(lifecycle["phase"]), "transitions": transitions, **totals}


def _progressive(state: dict, index: ProgressiveIndexBase) -> None:
    family = state["family"]
    if family["stage"] == "consolidation":
        state["family"] = {"stage": "converged",
                           **{key: family[key] for key in ("leaf_values", "pb_bounds") if key in family}}
    elif family["stage"] == "passes":  # PLSD's construction stage
        family["stage"] = "construction"
    elif family["stage"] == "merge":
        state["family"] = {"stage": "converged", "leaf_values": np.concatenate(family["current_set"]["buckets"])}
        state["lifecycle"]["phase"] = "converged"
        state["lifecycle"]["transitions"].append([state["queries_executed"], "converged"])
    elif family["stage"] == "construction" and "layout" not in family and type(index) in _LAYOUT_1:
        state["family"] = {"stage": "construction", index._ingested_key: family[index._ingested_key],
                           "layout": LAYOUT, **_LAYOUT_1[type(index)](family, index)}


def _cracking(state: dict, index: CrackingIndexBase) -> None:
    """Float64 keys as keys of the column's dtype."""
    family, dtype = state["family"], index._column.dtype
    cracker = family["cracker_index"]
    if dtype.kind == "f":
        return
    keys = np.asarray(cracker["keys"], dtype=np.float64)
    edges = (float(cracker["value_low"]), float(cracker["value_high"]))
    if not ((np.abs(keys) < 2.0**53).all() and max(map(abs, edges)) < 2.0**53):
        state["family"] = {"materialized": False, "rng_state": family["rng_state"]}
        if "sorted_pieces" in family:
            state["family"]["sorted_pieces"] = []
        state["lifecycle"] = {"phase": "inactive", "transitions": [], "queries": {}, "indexing_seconds": {}}
        return
    keys, first = np.unique(np.ceil(keys).astype(dtype), return_index=True)
    family["cracker_index"] = {**cracker, "keys": keys, "positions": np.asarray(cracker["positions"])[first],
                               "value_low": math.ceil(edges[0]), "value_high": math.ceil(edges[1])}


# ----------------------------------------------------------------------
# Layout-1 construction payloads as piece-table rows
# ----------------------------------------------------------------------
def _visit(rows: dict, number) -> None:
    if number in rows:  # a damaged tree may loop back
        raise IndexStateError(f"layout-1 node {number!r} is reached twice")


#: Node states of the layout-1 payloads, as piece states.
_STATES = {
    "pending": PENDING, "partitioning": PENDING, "partitioned": SPLIT, "sorted": SORTED,
    "waiting": WAITING, "copying": COPYING, "expanded": SPLIT, "done": SORTED,
}

#: Layout-1 radix node states whose values were on their way out of their source.
_MOVING = ("copying", "partitioning")


def _attach_pivot_tree(table: PieceTable, row: int, tree: dict) -> None:
    """A layout-1 pivot tree (PQ's refinement, or a PB bucket's) below piece
    ``row``: its root is the piece, its nodes become rows (breadth first, so
    siblings are side by side), its worklist is queued."""
    nodes, rows = tree["nodes"], {0: row}
    queue = deque([0])
    while queue:
        number = queue.popleft()
        spec, piece = nodes[number], rows[number]
        table.state[piece], table.split[piece] = _STATES[spec["state"]], spec["pivot"]
        table.vlo[piece], table.vhi[piece] = spec["value_low"], spec["value_high"]
        first = len(table.start)
        for child, lo, hi in ((spec["left"], table.lo[piece], spec["pivot"]),
                              (spec["right"], spec["pivot"], table.hi[piece])):
            if child is not None:
                _visit(rows, child)
                rows[child] = table.add(start=nodes[child]["start"], end=nodes[child]["end"], lo=lo, hi=hi,
                                        parent=piece, depth=table.depth[piece] + 1)
                queue.append(child)
        table.first[piece], table.fanout[piece] = first, len(table.start) - first
    table.height = max(table.height, int(tree["height"]))
    for number in tree["worklist"]:
        table.enqueue(rows[number])


def _pq(family: dict, index: ProgressiveQuicksort) -> dict:
    """The index array, then a pivot tree."""
    migrated = {"initialized": "index_array" in family, "sort_threshold": family["sort_threshold"],
                "pivot": family["pivot"], "low_fill": family.get("low_fill", 0), "high_fill": family.get("high_fill", 0)}
    if "index_array" in family:
        migrated["final_array"] = family["index_array"]
    if "sorter" in family:
        table = PieceTable(np.asarray(family["index_array"]))
        root = table.add(start=0, end=len(index._column), lo=-math.inf, hi=math.inf)
        _attach_pivot_tree(table, root, family["sorter"])
        migrated["pieces"] = table.state_dict()
    return migrated


def _pb(family: dict, index: ProgressiveBucketsort) -> dict:
    """The creation buckets, then one merge state and pivot tree per bucket:
    the buckets are the roots."""
    migrated = {key: family[key] for key in ("initialized", "bounds", "buckets") if key in family}
    if "merge" not in family:
        return migrated
    migrated["final_array"] = family["final_array"]
    table = PieceTable(np.asarray(family["final_array"]))
    index._add_roots(table, [int(spec["size"]) for spec in family["merge"]],
                     np.asarray(family["bounds"], dtype=np.float64))
    for row, spec in enumerate(family["merge"]):  # one bucket at most is under way
        if spec["state"] == "sorting":
            _attach_pivot_tree(table, row, spec["sorter"])
            continue
        table.state[row] = _STATES[spec["state"]]
        if table.state[row] == COPYING:
            table.progress[row] = int(spec["copied"])
            table.enqueue(row)
    migrated["pieces"] = table.state_dict()
    return migrated


def _pmsd(family: dict, index: ProgressiveRadixsortMSD) -> dict:
    """The creation buckets, then a radix node forest whose unsplit nodes
    each held their values: the nodes become rows, their values their
    creation bucket or their parent's child array."""
    migrated = {key: family[key] for key in ("initialized", "buckets") if key in family}
    if "nodes" not in family:
        return migrated
    migrated["final_array"] = family["final_array"]
    nodes, empty = family["nodes"], np.empty(0, dtype=index._column.dtype)
    table, rows, sets = PieceTable(np.asarray(family["final_array"])), {}, []

    def add(number, span, parent=-1):
        _visit(rows, number)
        spec = nodes[number]
        start, low, moving = int(spec["offset"]), int(spec["value_low"]), spec["state"] in _MOVING
        kind = SCATTERING if spec["state"] == "partitioning" else _STATES[spec["state"]]
        rows[number] = table.add(start=start, end=start + int(spec["size"]), lo=low, hi=low + span,
                                 parent=parent, depth=0 if parent < 0 else table.depth[parent] + 1, state=kind,
                                 progress=int(spec["moved"]) + int(spec["copied"]) if moving else 0)

    for number in family["roots"]:
        add(number, 1 << index._shift)
    queue = deque(family["roots"])
    while queue:
        spec, row = nodes[queue[0]], rows[queue.popleft()]
        if spec["state"] == "partitioning":
            sets.append({"piece": row, "buckets": spec["child_set"]["buckets"]})
        if spec["children"] is not None:
            table.first[row], table.fanout[row] = len(table.start), len(spec["children"])
            for child in spec["children"]:
                add(child, 1 << int(spec["shift"]), row)
                queue.append(child)
            sets.append({"piece": row, "buckets": [nodes[child].get("source", empty)
                                                   if nodes[child]["state"] in _MOVING + ("waiting",)
                                                   else empty for child in spec["children"]]})
    for number in family["worklist"]:
        table.enqueue(rows[number])
    migrated["pieces"] = {**table.state_dict(), "child_sets": sorted(
        (s for s in sets if any(len(b) for b in s["buckets"]) or table.state[s["piece"]] == SCATTERING),
        key=lambda s: s["piece"])}
    migrated["buckets"] = {
        "n_buckets": index.n_buckets, "block_size": index.block_size, "dtype": index._column.dtype.name,
        "buckets": [nodes[number].get("source", empty) if table.state[rows[number]] < PENDING else empty
                    for number in family["roots"]],
    }
    return migrated


_LAYOUT_1 = {ProgressiveQuicksort: _pq, ProgressiveBucketsort: _pb, ProgressiveRadixsortMSD: _pmsd}

#: Format -> the step that upgrades a state of that format to the next.
_STEPS = {1: _from_format_1}
