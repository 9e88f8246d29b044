"""Binary tree of pivots over a partially sorted array range.

During the refinement phase of Progressive Quicksort the index array is
recursively partitioned around pivots.  The paper keeps "a binary tree of the
pivot points.  In the nodes of this tree, we keep track of the pivot points
and how far along the pivoting process we are.  To do an index lookup, we use
this binary tree to find the sections of the array that could potentially
match the query predicate and only scan those."

:class:`PivotNode` is one such node: it covers a half-open range
``[start, end)`` of the index array, knows the value bounds of the elements
inside that range, and carries the state of its (incremental) partition.
:class:`PivotTree` owns the root node, propagates "sorted" markers upwards
(pruning fully sorted subtrees, as the paper describes), and reports the tree
height used by the refinement cost model (``t_lookup = h * phi``).
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np


class NodeState(enum.Enum):
    """Partitioning state of a :class:`PivotNode`."""

    #: No work has started; the covered range is in its original order.
    PENDING = "pending"
    #: A partition around the pivot is in progress (scratch buffer active).
    PARTITIONING = "partitioning"
    #: The partition completed; children cover the two sides.
    PARTITIONED = "partitioned"
    #: The covered range is fully sorted.
    SORTED = "sorted"


class PivotNode:
    """A node of the pivot tree covering ``array[start:end)``.

    Parameters
    ----------
    start, end:
        Half-open element range within the index array.
    value_low, value_high:
        Known inclusive bounds of the values stored in the range.  The pivot
        is the midpoint of these bounds (the paper picks the average of the
        smallest and largest value), so child bounds halve at every level and
        recursion terminates even for heavily skewed data.
    depth:
        Depth of the node in the tree (root = 0).
    parent:
        Parent node, or ``None`` for the root.
    """

    __slots__ = (
        "start",
        "end",
        "value_low",
        "value_high",
        "pivot",
        "depth",
        "parent",
        "left",
        "right",
        "state",
        "scratch",
        "low_fill",
        "high_fill",
        "scanned",
        "rank",
    )

    def __init__(
        self,
        start: int,
        end: int,
        value_low: float,
        value_high: float,
        depth: int = 0,
        parent: Optional["PivotNode"] = None,
    ) -> None:
        self.start = int(start)
        self.end = int(end)
        self.value_low = value_low
        self.value_high = value_high
        self.pivot = value_low + (value_high - value_low) / 2.0
        self.depth = int(depth)
        self.parent = parent
        self.left: Optional[PivotNode] = None
        self.right: Optional[PivotNode] = None
        self.state = NodeState.SORTED if self.size <= 1 else NodeState.PENDING
        # Incremental partition bookkeeping (active only while PARTITIONING).
        self.scratch: Optional[np.ndarray] = None
        self.low_fill = 0
        self.high_fill = 0
        self.scanned = 0
        #: Position key in the owning sorter's worklist (smaller is sooner).
        self.rank = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of elements covered by the node."""
        return self.end - self.start

    @property
    def is_sorted(self) -> bool:
        """Whether the covered range is fully sorted."""
        return self.state is NodeState.SORTED

    @property
    def value_span(self) -> float:
        """Width of the value bounds; used to detect degenerate ranges."""
        return self.value_high - self.value_low

    def children(self) -> List["PivotNode"]:
        """Existing children (0, 1 or 2 nodes)."""
        return [child for child in (self.left, self.right) if child is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PivotNode([{self.start}, {self.end}), pivot={self.pivot}, "
            f"state={self.state.value})"
        )


class PivotTree:
    """The tree of pivot nodes over one contiguous array range."""

    def __init__(self, root: PivotNode) -> None:
        self.root = root
        self.height = 1
        self._n_nodes = 1

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes ever created (monotone; pruning does not decrease it)."""
        return self._n_nodes

    @property
    def is_sorted(self) -> bool:
        """Whether the whole covered range is sorted."""
        return self.root.is_sorted

    def register_child(self, child: PivotNode) -> None:
        """Record a newly created child for height / node statistics."""
        self._n_nodes += 1
        self.height = max(self.height, child.depth + 1)

    # ------------------------------------------------------------------
    def mark_sorted(self, node: PivotNode) -> None:
        """Mark ``node`` sorted and propagate upwards, pruning sorted subtrees.

        "When two children of a node are sorted, the entire node itself is
        sorted, and we can prune the child nodes."  A missing child (empty
        partition side) counts as sorted.
        """
        node.state = NodeState.SORTED
        node.scratch = None
        current = node.parent
        while current is not None:
            left_sorted = current.left is None or current.left.is_sorted
            right_sorted = current.right is None or current.right.is_sorted
            if not (left_sorted and right_sorted):
                break
            current.state = NodeState.SORTED
            current.left = None
            current.right = None
            current.scratch = None
            current = current.parent

    # ------------------------------------------------------------------
    def lookup_nodes(self, low, high) -> List[PivotNode]:
        """Nodes whose ranges may contain values in ``[low, high]``.

        Descends through partitioned nodes using their pivots (left child
        holds values ``< pivot``, right child holds values ``>= pivot``) and
        stops at nodes that are sorted, pending or mid-partition — those are
        the sections the query has to scan.
        """
        relevant: List[PivotNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.size == 0:
                continue
            if node.state is NodeState.PARTITIONED:
                if node.right is not None and high >= node.pivot:
                    stack.append(node.right)
                if node.left is not None and low < node.pivot:
                    stack.append(node.left)
            else:
                relevant.append(node)
        relevant.sort(key=lambda n: n.start)
        return relevant

    def overlapping(self, low, high) -> List[PivotNode]:
        """Every node whose value bounds overlap ``[low, high]``, in any order.

        A child's bounds lie within its parent's, so the descent stops at the
        first node that does not overlap: it visits the overlapping nodes
        and at most two more per overlapping node.
        """
        found: List[PivotNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if low <= node.value_high and high >= node.value_low:
                found.append(node)
                if node.left is not None:
                    stack.append(node.left)
                if node.right is not None:
                    stack.append(node.right)
        return found
