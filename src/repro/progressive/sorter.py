"""Budget-bounded progressive sorting of a contiguous array range.

:class:`ProgressiveSorter` is the work-horse shared by Progressive Quicksort
(refinement phase) and Progressive Bucketsort (per-bucket refinement).  Given
a writable array range and the value bounds of the data inside it, every call
to :meth:`refine` performs at most ``element_budget`` elements worth of
reorganisation and every call to :meth:`query` returns the exact aggregate
over the range no matter how far the reorganisation has progressed.

The reorganisation follows the paper's recursive quicksort refinement:

* ranges larger than the sort threshold are partitioned around the midpoint
  of their value bounds, a bounded number of elements per call;
* ranges that fit the threshold (the paper's "smaller than the L1 cache")
  are sorted outright;
* once both children of a node are sorted the node is pruned
  (:class:`~repro.progressive.pivot_tree.PivotTree` handles propagation).

Substitution note: the paper performs the partition with predicated
in-place swaps.  Here it goes through the kernel seam (:mod:`repro.kernels`):
when the element budget covers a whole node, the in-place two-sided kernel
partitions it in one call; a node *larger* than the budget streams through a
two-ended scratch buffer — the creation-phase mechanics, the resumable
out-of-place kernel — and writes back when the node completes.  Per-query
work remains bounded by the element budget and queries on a mid-partition
node scan the still intact original range, so answers stay exact.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import attrgetter
from typing import Optional

import numpy as np

from repro import kernels
from repro.core.query import Predicate, QueryResult
from repro.progressive.pivot_tree import NodeState, PivotNode, PivotTree

#: Default number of elements below which a range is sorted outright.  This is
#: the analogue of the paper's "node smaller than the L1 cache" rule: 4096
#: 8-byte elements = 32 KiB, a typical L1 data cache size.
DEFAULT_SORT_THRESHOLD = 4096

#: Maximum pivot-tree depth before falling back to a direct sort.  Guards
#: against pathological value distributions (e.g. floating-point data whose
#: value bounds stop shrinking).
DEFAULT_MAX_DEPTH = 48


class ProgressiveSorter:
    """Progressively sorts ``array[start:end)`` with bounded work per call.

    Parameters
    ----------
    array:
        The writable index array; the sorter owns the ``[start, end)`` range.
    start, end:
        Half-open range covered by this sorter.
    value_low, value_high:
        Inclusive value bounds of the data in the range (used for pivot
        selection).
    sort_threshold:
        Ranges of at most this many elements are sorted directly.
    max_depth:
        Maximum pivot recursion depth before direct sorting.
    """

    def __init__(
        self,
        array: np.ndarray,
        start: int = 0,
        end: Optional[int] = None,
        value_low: Optional[float] = None,
        value_high: Optional[float] = None,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        self.array = array
        self.start = int(start)
        self.end = int(end if end is not None else array.size)
        if self.end < self.start:
            raise ValueError(f"invalid range [{start}, {end})")
        #: Optional :class:`~repro.storage.scratch.ScratchAllocator`; when
        #: set, mid-partition scratch buffers spill past the memory budget
        #: instead of holding O(node) anonymous RAM.
        self.scratch_allocator = None
        self.sort_threshold = max(1, int(sort_threshold))
        self.max_depth = max(1, int(max_depth))
        segment = array[self.start : self.end]
        if value_low is None:
            value_low = float(segment.min()) if segment.size else 0.0
        if value_high is None:
            value_high = float(segment.max()) if segment.size else 0.0
        root = PivotNode(self.start, self.end, value_low, value_high, depth=0)
        self.tree = PivotTree(root)
        self._reset_worklist()
        if not root.is_sorted:
            self._enqueue(root)

    # ------------------------------------------------------------------
    # Alternative constructor used by Progressive Quicksort
    # ------------------------------------------------------------------
    @classmethod
    def from_partitioned(
        cls,
        array: np.ndarray,
        boundary: int,
        pivot: float,
        value_low: float,
        value_high: float,
        start: int = 0,
        end: Optional[int] = None,
        sort_threshold: int = DEFAULT_SORT_THRESHOLD,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> "ProgressiveSorter":
        """Build a sorter whose root has already been partitioned.

        The creation phase of Progressive Quicksort leaves the index array
        split at ``boundary``: values ``< pivot`` before it, values
        ``>= pivot`` after it.  The refinement phase continues from exactly
        that state.
        """
        sorter = cls(
            array,
            start=start,
            end=end,
            value_low=value_low,
            value_high=value_high,
            sort_threshold=sort_threshold,
            max_depth=max_depth,
        )
        root = sorter.tree.root
        if root.is_sorted:
            return sorter
        root.pivot = pivot
        sorter._reset_worklist()
        sorter._create_children(root, int(boundary))
        if not root.is_sorted and not root.children():
            # Degenerate split (everything on one missing side): fall back to
            # treating the root as an unpartitioned pending node.
            root.state = NodeState.PENDING
            sorter._enqueue(root)
        return sorter

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_sorted(self) -> bool:
        """Whether the covered range is fully sorted."""
        return self.tree.is_sorted

    @property
    def height(self) -> int:
        """Height of the pivot tree (used by the lookup cost term)."""
        return self.tree.height

    @property
    def size(self) -> int:
        """Number of elements covered by the sorter."""
        return self.end - self.start

    def remaining_work(self) -> int:
        """Rough number of element moves still required to finish sorting."""
        remaining = 0
        for node in self._worklist:
            if node.state is NodeState.PARTITIONING:
                remaining += node.size - node.scanned
            else:
                remaining += node.size
        return remaining

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def refine(self, element_budget: int) -> int:
        """Perform up to ``element_budget`` elements of sorting work.

        Returns the number of elements actually processed (which may slightly
        exceed the budget when a threshold-sized node is sorted outright, and
        is smaller when the range runs out of work).
        """
        processed = 0
        budget = int(element_budget)
        worklist = self._worklist
        while budget > 0 and worklist:
            node = next(iter(worklist))
            if node.is_sorted:
                worklist.popitem(last=False)
                continue
            if self._should_sort_directly(node):
                self._direct_sort(node)
                worklist.popitem(last=False)
                processed += node.size
                budget -= node.size
                continue
            step = self._partition_step(node, budget)
            processed += step
            budget -= step
            if node.state is NodeState.PARTITIONED or node.is_sorted:
                worklist.popitem(last=False)
        return processed

    def finish(self) -> int:
        """Complete all remaining refinement outright with direct sorts.

        Used when a (pooled) budget grants the whole remaining phase in one
        go — the batch executor's front-loading case: sorting every pending
        range directly is equivalent to running the incremental partition
        passes to completion but does the work in one optimized pass per
        range.  A mid-partition node's original range is still intact (the
        incremental partition writes into a scratch buffer), so direct
        sorting is always safe.

        Returns the number of elements processed.
        """
        processed = 0
        while self._worklist:
            node, _ = self._worklist.popitem(last=False)
            if node.is_sorted:
                continue
            processed += node.size
            self._direct_sort(node)
        return processed

    def prioritize(self, predicate: Predicate) -> None:
        """Move work overlapping ``predicate`` to the front of the worklist.

        Mirrors the paper's "we focus on refining parts of the index that are
        required for query processing"; the remaining order is untouched so
        neighbouring parts are processed next.  The overlapping nodes come
        from a descent of the pivot tree and keep their relative order, so
        the cost is ``O(k log k)`` for the ``k`` nodes the predicate touches,
        whatever the worklist's length.
        """
        worklist = self._worklist
        if not worklist:
            return
        preferred = [
            node for node in self.tree.overlapping(predicate.low, predicate.high) if node in worklist
        ]
        preferred.sort(key=attrgetter("rank"), reverse=True)
        for node in preferred:
            self._front -= 1
            node.rank = self._front
            worklist.move_to_end(node, last=False)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(self, predicate: Predicate) -> QueryResult:
        """Exact aggregate of values matching ``predicate`` in the range."""
        result = QueryResult.empty()
        for node in self.tree.lookup_nodes(predicate.low, predicate.high):
            segment = self.array[node.start : node.end]
            if segment.size == 0:
                continue
            if node.is_sorted:
                result += QueryResult.from_sorted(segment, predicate.low, predicate.high)
            else:
                result += QueryResult.from_range(segment, predicate.low, predicate.high)
        return result

    def scanned_fraction(self, predicate: Predicate) -> float:
        """Fraction of the covered range a query would scan (the paper's α)."""
        if self.size == 0:
            return 0.0
        touched = 0
        for node in self.tree.lookup_nodes(predicate.low, predicate.high):
            if node.is_sorted:
                # Binary search: negligible scan cost, count matching range only.
                segment = self.array[node.start : node.end]
                lo = np.searchsorted(segment, predicate.low, side="left")
                hi = np.searchsorted(segment, predicate.high, side="right")
                touched += max(0, int(hi - lo))
            else:
                touched += node.size
        return min(1.0, touched / self.size)

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the pivot tree and worklist.

        The covered array range itself is persisted by the owning index;
        this state only captures the tree structure.  A node caught
        mid-partition (``PARTITIONING``) is recorded as ``PENDING``: its
        scratch buffer is process memory and the original array range is
        still intact by construction, so restarting its partition from
        scratch is always correct — the checkpoint trades at most one
        node's worth of progress for never having to persist half-filled
        scratch buffers.
        """
        nodes: list = []
        ids: dict = {}

        def visit(node: PivotNode) -> int:
            number = len(nodes)
            ids[id(node)] = number
            state = node.state
            if state is NodeState.PARTITIONING:
                state = NodeState.PENDING
            nodes.append(
                {
                    "start": node.start,
                    "end": node.end,
                    "value_low": node.value_low,
                    "value_high": node.value_high,
                    "pivot": node.pivot,
                    "depth": node.depth,
                    "state": state.value,
                    "left": None,
                    "right": None,
                }
            )
            if node.left is not None:
                nodes[number]["left"] = visit(node.left)
            if node.right is not None:
                nodes[number]["right"] = visit(node.right)
            return number

        visit(self.tree.root)
        worklist = [ids[id(node)] for node in self._worklist if id(node) in ids]
        return {
            "start": self.start,
            "end": self.end,
            "sort_threshold": self.sort_threshold,
            "max_depth": self.max_depth,
            "height": self.tree.height,
            "n_nodes": self.tree.n_nodes,
            "nodes": nodes,
            "worklist": worklist,
        }

    @classmethod
    def from_state(cls, array: np.ndarray, state: dict) -> "ProgressiveSorter":
        """Rebuild a sorter over ``array`` from :meth:`state_dict` output."""
        sorter = cls.__new__(cls)
        sorter.array = array
        sorter.scratch_allocator = None
        sorter.start = int(state["start"])
        sorter.end = int(state["end"])
        sorter.sort_threshold = int(state["sort_threshold"])
        sorter.max_depth = int(state["max_depth"])
        specs = state["nodes"]
        built: list = []
        for spec in specs:
            node = PivotNode(
                int(spec["start"]),
                int(spec["end"]),
                spec["value_low"],
                spec["value_high"],
                depth=int(spec["depth"]),
            )
            node.pivot = spec["pivot"]
            node.state = NodeState(spec["state"])
            built.append(node)
        for spec, node in zip(specs, built):
            if spec["left"] is not None:
                node.left = built[int(spec["left"])]
                node.left.parent = node
            if spec["right"] is not None:
                node.right = built[int(spec["right"])]
                node.right.parent = node
        sorter.tree = PivotTree(built[0])
        sorter.tree.height = int(state.get("height", 1))
        sorter.tree._n_nodes = int(state.get("n_nodes", len(built)))
        sorter._reset_worklist()
        for number in state.get("worklist", []):
            sorter._enqueue(built[int(number)])
        return sorter

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reset_worklist(self) -> None:
        """An empty worklist: the unfinished nodes in the order they are
        refined, each node's ``rank`` increasing along it."""
        self._worklist: OrderedDict = OrderedDict()
        self._front = self._back = 0

    def _enqueue(self, node: PivotNode) -> None:
        """Queue ``node`` last."""
        node.rank = self._back
        self._back += 1
        self._worklist[node] = None

    def _should_sort_directly(self, node: PivotNode) -> bool:
        if node.state is NodeState.PARTITIONING:
            return False
        if node.size <= self.sort_threshold:
            return True
        if node.depth >= self.max_depth:
            return True
        # Degenerate value bounds: all values (nearly) identical, a pivot
        # cannot split them any further.
        span = node.value_span
        if isinstance(node.value_low, float) or isinstance(node.value_high, float):
            return span <= 0
        return span <= 1

    def _direct_sort(self, node: PivotNode) -> None:
        segment = self.array[node.start : node.end]
        segment.sort()
        self.tree.mark_sorted(node)

    def _partition_step(self, node: PivotNode, budget: int) -> int:
        """Advance the two-ended partition of ``node`` by up to ``budget`` elements."""
        if node.state is NodeState.PENDING and budget >= node.size:
            # The whole node fits the budget: partition it in place, at once.
            segment = self.array[node.start : node.end]
            boundary = node.start + kernels.partition_swap(segment, node.pivot)
            self._create_children(node, boundary)
            return node.size
        if node.state is NodeState.PENDING:
            if self.scratch_allocator is not None:
                node.scratch = self.scratch_allocator.allocate(node.size, self.array.dtype)
            else:
                node.scratch = np.empty(node.size, dtype=self.array.dtype)
            node.low_fill = 0
            node.high_fill = node.size
            node.scanned = 0
            node.state = NodeState.PARTITIONING
        take = min(budget, node.size - node.scanned)
        if take <= 0:
            return 0
        chunk_start = node.start + node.scanned
        chunk = self.array[chunk_start : chunk_start + take]
        below = kernels.partition_chunk(
            chunk, node.pivot, node.scratch, node.low_fill, node.high_fill
        )
        node.low_fill += below
        node.high_fill -= take - below
        node.scanned += take
        if node.scanned >= node.size:
            self.array[node.start : node.end] = node.scratch
            boundary = node.start + node.low_fill
            node.scratch = None
            self._create_children(node, boundary)
        return take

    def _create_children(self, node: PivotNode, boundary: int) -> None:
        """Create children after the partition of ``node`` completed."""
        boundary = min(max(boundary, node.start), node.end)
        node.state = NodeState.PARTITIONED
        left_size = boundary - node.start
        right_size = node.end - boundary
        if left_size == 0 or right_size == 0:
            # The pivot failed to split the range (skewed/duplicate data):
            # narrow the value bounds and retry on the same range so the
            # recursion still terminates.
            child_low = node.value_low if left_size > 0 else node.pivot
            child_high = node.pivot if left_size > 0 else node.value_high
            child = PivotNode(
                node.start, node.end, child_low, child_high, node.depth + 1, parent=node
            )
            if left_size > 0:
                node.left = child
            else:
                node.right = child
            self.tree.register_child(child)
            if child.is_sorted:
                self.tree.mark_sorted(child)
            else:
                self._enqueue(child)
            return
        left = PivotNode(
            node.start, boundary, node.value_low, node.pivot, node.depth + 1, parent=node
        )
        right = PivotNode(
            boundary, node.end, node.pivot, node.value_high, node.depth + 1, parent=node
        )
        node.left = left
        node.right = right
        self.tree.register_child(left)
        self.tree.register_child(right)
        for child in (left, right):
            if child.is_sorted:
                self.tree.mark_sorted(child)
            else:
                self._enqueue(child)
