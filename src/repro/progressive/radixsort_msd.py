"""Progressive Radixsort, most-significant digits first (Section 3.2).

Creation
    ``b`` empty buckets (linked lists of fixed-size blocks) are allocated on
    the first query.  Every query moves another ``delta * N`` elements of the
    base column into the buckets, choosing the bucket by the most significant
    ``log2(b)`` bits of the element's order-preserving radix key (a single
    shift; see :class:`~repro.core.keys.RadixKeySpace` — equivalent to the
    paper's ``value - min`` for integer columns, exact IEEE-754 bit-pattern
    ordering for floats).  Because the most significant bits are used, the
    buckets form a value-range partitioning, so range queries only scan the
    buckets overlapping the predicate plus the not-yet-bucketed tail of the
    column.

Refinement
    Each bucket is recursively re-partitioned by the next ``log2(b)`` bits.
    A node knows its children's sizes before it moves anything — the
    histogram of the next digit over its source — so its children are an
    :class:`~repro.progressive.blocks.ExactBucketSet`: one flat array, filled
    in place by the cursor scatter, the children contiguous and in value
    order.  Buckets that fit the cache threshold are instead sorted outright
    and written into their final position of the sorted index array (their
    position is known because the buckets are value-ordered).  Since sibling
    leaves lie side by side in their parent's flat array and in the final
    array alike, a run of them that fits the step's budget is drained with
    one copy and sorted with one ``np.sort`` — the same array as sorting
    them one by one, each leaf still charged its size.  A small tree of
    radix nodes routes queries to the right buckets / final-array segments
    while the refinement is in progress.

Consolidation
    Identical to Progressive Quicksort: a B+-tree cascade is built over the
    final sorted array.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro.btree.cascade import DEFAULT_FANOUT
from repro.core.calibration import DEFAULT_BLOCK_SIZE, CostConstants
from repro.core.phase import IndexPhase
from repro.core.policy import BudgetPolicy
from repro.core.query import Predicate, QueryResult
from repro.progressive.base import ProgressiveIndexBase
from repro.progressive.blocks import BlockList, ExactBucketSet
from repro.progressive.sorter import DEFAULT_SORT_THRESHOLD
from repro.storage.column import Column

#: Default number of radix buckets.  The paper uses 64 so that all bucket
#: write positions fit the L1 cache lines / TLB entries of their machine.
DEFAULT_BUCKET_COUNT = 64


class _NodeState(enum.Enum):
    """Refinement state of a radix node."""

    WAITING = "waiting"          # data still in the node's source block list
    COPYING = "copying"          # small node: moving data into the final array
    PARTITIONING = "partitioning"  # large node: scattering into child buckets
    EXPANDED = "expanded"        # children created; node itself holds no data
    DONE = "done"                # final array segment sorted


class _RadixNode:
    """One bucket of the (recursive) MSD radix partitioning.

    A node owns a contiguous segment ``[offset, offset + size)`` of the final
    sorted array and the block list holding its (unsorted) values.  A child's
    values lie in ``home``, its parent's exact-offset set, from
    ``home_start`` on; its block list is a view made on first use.  It covers the *relative radix-key* range ``[value_low,
    value_low + 2^(shift + bits_per_level))`` — biased keys, so the routing
    is exact for both integer and float columns.
    """

    __slots__ = (
        "source",
        "offset",
        "size",
        "value_low",
        "shift",
        "state",
        "copied",
        "moved",
        "children",
        "child_set",
        "home",
        "home_start",
    )

    def __init__(
        self, source: Optional[BlockList], offset: int, size: int, value_low: int, shift: int
    ) -> None:
        self.source = source
        self.offset = offset
        self.size = size
        self.value_low = value_low
        self.shift = shift
        self.state = _NodeState.WAITING
        self.copied = 0
        self.moved = 0
        self.children: Optional[List["_RadixNode"]] = None
        self.child_set: Optional[ExactBucketSet] = None
        self.home: Optional[ExactBucketSet] = None
        self.home_start = 0


class ProgressiveRadixsortMSD(ProgressiveIndexBase):
    """Progressive Radixsort (MSD) index over a single column.

    Parameters
    ----------
    column:
        Column to index (``int64`` or ``float64``; bucket routing happens in
        the column's order-preserving :class:`~repro.core.keys.RadixKeySpace`).
    budget:
        Budget policy.
    constants:
        Cost-model constants.
    n_buckets:
        Radix fan-out ``b`` (a power of two).
    block_size:
        Elements per linked block (paper: ``sb``).
    sort_threshold:
        Buckets of at most this many elements are sorted outright instead of
        being re-partitioned (the paper's L1-cache rule).
    fanout:
        β of the consolidation-phase B+-tree cascade.
    """

    name = "PMSD"
    description = "Progressive Radixsort (MSD)"

    def __init__(
        self,
        column: Column,
        budget: BudgetPolicy | None = None,
        constants: CostConstants | None = None,
        n_buckets: int = DEFAULT_BUCKET_COUNT,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        super().__init__(column, budget=budget, constants=constants, fanout=fanout)
        if n_buckets < 2 or (n_buckets & (n_buckets - 1)) != 0:
            raise ValueError(f"n_buckets must be a power of two >= 2, got {n_buckets}")
        self.n_buckets = int(n_buckets)
        self.bits_per_level = int(np.log2(self.n_buckets))
        self.block_size = int(block_size)
        self.sort_threshold = int(sort_threshold)
        self._cost_model.block_size = self.block_size
        # Refinement state: the radix node forest, its unfinished nodes
        # queued breadth first.
        self._roots: List[_RadixNode] | None = None
        self._worklist: Deque[_RadixNode] = deque()

    @property
    def _shift(self) -> int:
        """Shift of the creation buckets' (most significant) digit."""
        return self._keyspace.top_shift

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def _construction_state(self) -> dict:
        state = {"initialized": self.phase is not IndexPhase.INACTIVE}
        if self._buckets is not None and self._roots is None:
            state["buckets"] = self._buckets.state_dict()
        if self._roots is not None:
            nodes: list = []
            ids: dict = {}

            def visit(node: _RadixNode) -> int:
                number = len(nodes)
                ids[id(node)] = number
                spec = {
                    "offset": node.offset,
                    "size": node.size,
                    "value_low": node.value_low,
                    "shift": node.shift,
                    "state": node.state.value,
                    "copied": node.copied,
                    "moved": node.moved,
                    "children": None,
                }
                if node.state in (
                    _NodeState.WAITING, _NodeState.COPYING, _NodeState.PARTITIONING
                ):
                    spec["source"] = self._source(node).to_array()
                if node.state is _NodeState.PARTITIONING and node.child_set is not None:
                    spec["child_set"] = node.child_set.state_dict()
                nodes.append(spec)
                if node.children is not None:
                    spec["children"] = [visit(child) for child in node.children]
                return number

            state["roots"] = [visit(root) for root in self._roots]
            state["nodes"] = nodes
            state["worklist"] = [ids[id(node)] for node in self._worklist]
            state["unfinished"] = len(self._worklist)
            if self._final_array is not None:
                state["final_array"] = np.array(self._final_array)
        return state

    def _load_construction_state(self, state: dict) -> None:
        if not state.get("initialized"):
            return
        if "buckets" in state:
            self._buckets = self._bucket_set(state["buckets"])
        if "nodes" not in state:
            return
        if "final_array" in state:
            self._final_array = np.asarray(state["final_array"])
        specs = state["nodes"]
        built: List[_RadixNode] = []
        for spec in specs:
            node = _RadixNode(
                source=self._block_list(spec.get("source")),
                offset=int(spec["offset"]),
                size=int(spec["size"]),
                value_low=int(spec["value_low"]),
                shift=int(spec["shift"]),
            )
            node.state = _NodeState(spec["state"])
            node.copied = int(spec["copied"])
            node.moved = int(spec["moved"])
            if "child_set" in spec:
                node.child_set = self._child_set(node, spec["child_set"])
            built.append(node)
        for spec, node in zip(specs, built):
            if spec["children"] is not None:
                node.children = [built[int(i)] for i in spec["children"]]
        self._roots = [built[int(i)] for i in state["roots"]]
        # The unfinished nodes are exactly the queued ones.
        self._worklist = deque(built[int(i)] for i in state.get("worklist", []))

    # ------------------------------------------------------------------
    # Creation phase
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        self._buckets = self._bucket_set()

    def _ingest(self, chunk: np.ndarray) -> None:
        self._buckets.scatter_radix(chunk, self._keyspace.key_min, self._shift)

    def _creation_work_time(self) -> float:
        return self._cost_model.bucket_write_time(len(self._column))

    def _bucket_id(self, values: np.ndarray) -> np.ndarray:
        shifted = self._keyspace.shifted(values, self._shift)
        return np.minimum(shifted, self.n_buckets - 1)

    def _bucket_id_scalar(self, value) -> int:
        return min(self._keyspace.relative_key(value) >> self._shift, self.n_buckets - 1)

    def _relevant_buckets(self, predicate: Predicate) -> range:
        if predicate.high < self._column.min():
            return range(0)
        return range(
            self._bucket_id_scalar(predicate.low),
            self._bucket_id_scalar(predicate.high) + 1,
        )

    # ------------------------------------------------------------------
    # Refinement phase
    # ------------------------------------------------------------------
    def _start_refinement(self) -> None:
        n = len(self._column)
        self._final_array = self._scratch_allocate(n, self._column.dtype)
        sizes = self._buckets.sizes()
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        bucket_span = 1 << self._shift
        self._roots = []
        for bucket_id in range(self.n_buckets):
            size = int(sizes[bucket_id])
            node = _RadixNode(
                source=self._buckets[bucket_id],
                offset=int(offsets[bucket_id]),
                size=size,
                value_low=bucket_id * bucket_span,
                shift=max(0, self._shift - self.bits_per_level),
            )
            self._roots.append(node)
            if size == 0:
                node.state = _NodeState.DONE
            else:
                self._worklist.append(node)

    def _node_must_copy(self, node: _RadixNode) -> bool:
        """Small (or unsplittable) nodes are sorted outright into the array."""
        return node.size <= self.sort_threshold or node.shift <= 0 or self._shift == 0

    def _child_set(self, node: _RadixNode, state: dict | None = None) -> ExactBucketSet:
        """The exact-offset set ``node`` partitions into (or the one
        ``state`` saved, part filled): its sizes are the histogram of the
        next digit over the node's source."""
        counts = np.zeros(self.n_buckets, dtype=np.int64)
        self._source(node).histogram(self._keyspace.key_min + node.value_low, node.shift, counts)
        return self._bucket_set(state, sizes=counts)

    def _refine(self, element_budget: int, predicate: Predicate) -> int:
        processed = 0
        budget = int(element_budget)
        while budget > 0 and self._worklist:
            node = self._worklist[0]
            if node.state is _NodeState.WAITING:
                if self._node_must_copy(node):
                    run = self._leaf_run(budget)
                    if run:
                        drained = self._drain_leaves(run)
                        processed += drained
                        budget -= drained
                        continue
                    node.state = _NodeState.COPYING
                else:
                    node.state = _NodeState.PARTITIONING
                    node.child_set = self._child_set(node)
            if node.state is _NodeState.COPYING:
                take = min(budget, node.size - node.copied)
                if take > 0:
                    copied = self._source(node).drain_into(
                        self._final_array, node.offset + node.copied, node.copied, take
                    )
                    node.copied += copied
                    processed += copied
                    budget -= copied
                if node.copied >= node.size:
                    self._final_array[node.offset : node.offset + node.size].sort()
                    self._release(node, _NodeState.DONE)
                    self._worklist.popleft()
            else:  # PARTITIONING
                take = min(budget, node.size - node.moved)
                if take > 0:
                    base = self._keyspace.key_min + node.value_low
                    for part in self._source(node).read(node.moved, take):
                        node.child_set.scatter_radix(part, base, node.shift)
                    node.moved += take
                    processed += take
                    budget -= take
                if node.moved >= node.size:
                    self._expand_node(node)
                    self._worklist.popleft()
        return processed

    def _leaf_run(self, budget: int) -> int:
        """How many nodes from the head of the worklist are waiting leaves
        that lie side by side in one parent's flat array and fit ``budget``
        whole, together (0 when the head is no such leaf)."""
        head = self._worklist[0]
        if head.home is None:
            return 0
        home, end, total, count = head.home, head.home_start, 0, 0
        # Siblings share a shift, so their sizes alone decide which are leaves
        # (all are when the shift leaves nothing to split).
        largest = self.sort_threshold if head.shift > 0 and self._shift != 0 else budget
        for node in self._worklist:
            if (node.home is not home or node.home_start != end or node.size > largest
                    or node.state is not _NodeState.WAITING or total + node.size > budget):
                break
            count += 1
            end += node.size
            total += node.size
        return count

    def _drain_leaves(self, count: int) -> int:
        """Copy the ``count`` leaves at the head of the worklist into the
        final array with one copy, sort them with one sort, and finish them;
        returns the elements copied.  Sibling leaves are value-ordered and
        adjacent in the final array too, so one sort of the run equals one
        sort per leaf."""
        worklist = self._worklist
        head = worklist[0]
        values, start, total = head.home.data, head.home_start, 0
        for _ in range(count):
            leaf = worklist.popleft()
            leaf.copied = leaf.size
            total += leaf.size
            self._release(leaf, _NodeState.DONE)
        segment = self._final_array[head.offset : head.offset + total]
        segment[:] = values[start : start + total]
        segment.sort()
        return total

    def _source(self, node: _RadixNode) -> BlockList:
        """The block list holding ``node``'s values; a child's is a view of
        its parent's flat array, made on first use."""
        if node.source is None:
            node.source = self._block_list(node.home.data[node.home_start : node.home_start + node.size])
        return node.source

    @staticmethod
    def _release(node: _RadixNode, state: _NodeState) -> None:
        """``node``'s values moved on (sorted, or partitioned into children)."""
        if node.source is not None:
            node.source.clear()
        node.source = node.home = None
        node.state = state

    def _expand_node(self, node: _RadixNode) -> None:
        """Create child nodes once the re-partition of ``node`` completed;
        their values stay in the node's flat child array."""
        self._release(node, _NodeState.EXPANDED)
        children, node.child_set = node.child_set, None
        starts = children.starts.tolist()
        offset, low, child_span = node.offset, node.value_low, 1 << node.shift
        child_shift = max(0, node.shift - self.bits_per_level)
        queue = self._worklist.append
        node.children = []
        for child_id, (start, stop) in enumerate(zip(starts, starts[1:])):
            child = _RadixNode(None, offset + start, stop - start, low + child_id * child_span, child_shift)
            node.children.append(child)
            if stop == start:
                child.state = _NodeState.DONE
            else:
                child.home, child.home_start = children, start
                queue(child)

    def _leaves(self, predicate: Predicate) -> list:
        """The non-empty unexpanded nodes that can hold values matching
        ``predicate``, in value order.

        An expanded node's relevant children are found by arithmetic on the
        predicate bounds as relative radix keys — pruning in key space is
        exact for floats too — so the walk touches only them.
        """
        key_low = self._keyspace.relative_key(predicate.low)
        key_high = self._keyspace.relative_key(predicate.high)
        leaves: list = []

        def visit(nodes, first, last):
            for node in nodes[first : last + 1]:
                if node.state is _NodeState.EXPANDED:
                    low, shift = node.value_low, node.shift
                    visit(node.children, max(0, (key_low - low) >> shift), (key_high - low) >> shift)
                elif node.size:
                    leaves.append(node)

        relevant = self._relevant_buckets(predicate)
        visit(self._roots, relevant.start, relevant.stop - 1)
        return leaves

    def _refinement_work_time(self) -> float:
        """Cost of performing the entire remaining refinement at once.

        Every element is read back out of its linked blocks (a bucket
        scan), re-scattered into child buckets (a bucket write), and
        finally drained into its sorted segment of the index array (a
        sequential write plus the cache-sized segment sort).  Pricing only
        the scatter — the paper's simplification — makes the greedy policy
        overshoot its interactivity budget by >2x on this phase.
        """
        n = len(self._column)
        return (
            self._cost_model.bucket_scan_time(n)
            + self._cost_model.bucket_write_time(n)
            + self._cost_model.write_time(n)
            + self._cost_model.segment_sort_time(n)
        )

    def _refinement_scan(self, predicate: Predicate) -> tuple:
        n = len(self._column)
        relevant = sum(
            node.size for node in self._leaves(predicate) if node.state is not _NodeState.DONE
        )
        return relevant / n, self._cost_model.bucket_scan_time(n)

    def _refinement_answer(self, predicate: Predicate) -> QueryResult:
        """One seam call per run of relevant leaves in one array: sorted
        leaves lie side by side in the final array, unsorted siblings in
        their parent's flat child array.  A leaf with a block list of its own
        (a root, or any node after a restore) is read on its own.

        Leaves come in value order, so two in a row that share an array are
        adjacent in it: a leaf between them would come between them.
        """
        low, high = predicate.low, predicate.high
        result = QueryResult.empty()
        run = None  # [array, start, stop]
        for node in self._leaves(predicate):
            if node.state is _NodeState.DONE:
                array, start = self._final_array, node.offset
            elif node.home is not None:
                array, start = node.home.data, node.home_start
            else:
                array = start = None
            if run is not None and run[0] is array:
                run[2] += node.size
                continue
            if run is not None:
                result += self._read_run(*run, low, high)
            if array is None:
                run = None
                result += node.source.scan(low, high)
            else:
                run = [array, start, start + node.size]
        if run is not None:
            result += self._read_run(*run, low, high)
        return result

    def _read_run(self, array: np.ndarray, start: int, stop: int, low, high) -> QueryResult:
        """The answer from ``array[start:stop]``: sorted in the final array."""
        if array is self._final_array:
            return QueryResult.from_sorted(array[start:stop], low, high)
        return QueryResult.from_range(array[start:stop], low, high)

    def _refinement_done(self) -> bool:
        return not self._worklist
