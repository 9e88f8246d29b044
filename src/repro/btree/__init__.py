"""The sorted-array read structure.

:class:`~repro.btree.cascade.CascadeTree` answers range and point queries
from one :class:`~repro.core.query.SortedLeaf`: two binary searches and a
prefix-sum difference.  The paper puts a B+-tree over the sorted array; a
lookup through its levels never beats one binary search over the whole
array here, so none is built.
"""

from repro.btree.cascade import CascadeTree

__all__ = ["CascadeTree"]
