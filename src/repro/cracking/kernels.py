"""Cracking kernels: the in-place piece partitions, as entry points.

Pirk et al. (DaMoN 2014) and Haffner et al. (DaMoN 2018) study how the inner
loop of database cracking — partitioning one piece of the column around a
pivot — should be implemented, and the paper's own answer for progressive
indexing is predication.  The implementations live behind the kernel seam
(:mod:`repro.kernels`: compiled when the host has ``cc``, NumPy otherwise);
these are its two in-place forms under the names the engine always used.
Both return the boundary: ``values[:boundary] < pivot <= values[boundary:]``.
"""

from __future__ import annotations

import numpy as np

from repro import kernels


def partition_predicated(values: np.ndarray, pivot) -> int:
    """Partition ``values`` in place around ``pivot``, order-preserving on
    both sides (out of place through a scratch copy)."""
    return kernels.partition_inplace(values, pivot)


def partition_two_sided(values: np.ndarray, pivot) -> int:
    """Partition ``values`` in place around ``pivot`` with two-ended swaps:
    only the misplaced elements move, pairwise, and nothing is allocated."""
    return kernels.partition_swap(values, pivot)
