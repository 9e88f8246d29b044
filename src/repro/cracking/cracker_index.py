"""The cracker index: pivot values mapped to piece boundaries.

Database cracking maintains, next to the physically reorganised cracker
column, a *cracker index* that records where the column has already been
partitioned.  An entry ``key -> position`` states the invariant::

    column[0:position]  <  key
    column[position:N] >=  key

The pieces of the cracker column are therefore the gaps between consecutive
boundary positions.

:class:`CrackerIndex` stores the entries in a pair of flat, sorted NumPy
arrays: lookups are single C-level binary searches (``np.searchsorted``) and
inserts are one ``memmove``-style shift inside a capacity-doubling buffer.
For the entry counts cracking produces (one or two new boundaries per query)
this is far faster than pointer-chasing a Python tree — the AVL-backed
implementation the seed used is preserved as :class:`AVLCrackerIndex`, a
behavioural reference that the flat index is differentially tested against.

The keys are in the column's dtype, so every lookup and crack is exact on
the whole value domain (int64 past 2**53 included).  A pivot or bound of
another type becomes the key that splits the column the same way
(:func:`repro.kernels.typed_pivot`: ``ceil(p)`` for an integer column, as
``v < p`` iff ``v < ceil(p)`` for an integer ``v``); one above the dtype's
largest value has every value below it, stores no key and sits at the end
of the column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro import kernels
from repro.cracking.avl import AVLTree
from repro.errors import IndexStateError

#: Initial entry capacity of the flat arrays.
_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class Piece:
    """A contiguous, not-yet-fully-cracked piece of the cracker column.

    Attributes
    ----------
    start, end:
        Half-open position range of the piece.
    value_low, value_high:
        Known value bounds of the piece: every element ``e`` in the piece
        satisfies ``value_low <= e < value_high`` (bounds come from the
        neighbouring cracker-index entries, or the column domain at the
        edges).
    """

    start: int
    end: int
    value_low: float
    value_high: float

    @property
    def size(self) -> int:
        """Number of elements in the piece."""
        return self.end - self.start


class CrackerIndex:
    """Ordered map from pivot value to piece boundary position.

    Parameters
    ----------
    n_elements:
        Size of the cracker column.
    value_low, value_high:
        Domain bounds of the column (used for the edge pieces).
    dtype:
        The column's dtype, which the keys are stored in.
    """

    def __init__(self, n_elements: int, value_low: float, value_high: float, dtype=np.float64) -> None:
        self._dtype = np.dtype(dtype)
        self._keys = np.empty(_INITIAL_CAPACITY, dtype=self._dtype)
        self._positions = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._count = 0
        self._n = int(n_elements)
        self._value_low = value_low
        self._value_high = value_high

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def key(self, value):
        """``value`` as a key: ``v < key`` iff ``v < value`` for every ``v``
        of the dtype; ``None`` when every value is below it."""
        return kernels.typed_pivot(self._dtype, value)

    @property
    def n_pieces(self) -> int:
        """Number of pieces the column is currently divided into."""
        return self._count + 1

    def boundaries(self) -> Iterator[Tuple[float, int]]:
        """Iterate over ``(pivot value, position)`` entries in value order."""
        return zip(self._keys[: self._count].tolist(), self._positions[: self._count].tolist())

    # ------------------------------------------------------------------
    def add(self, key: float, position: int) -> None:
        """Record that the column has been cracked at ``key`` / ``position``."""
        key = self.key(key)
        if key is None:
            return
        slot = int(np.searchsorted(self._keys[: self._count], key))
        if slot < self._count and self._keys[slot] == key:
            self._positions[slot] = int(position)
            return
        if self._count == self._keys.size:
            grown_keys = np.empty(self._keys.size * 2, dtype=self._dtype)
            grown_positions = np.empty(self._positions.size * 2, dtype=np.int64)
            grown_keys[: self._count] = self._keys[: self._count]
            grown_positions[: self._count] = self._positions[: self._count]
            self._keys = grown_keys
            self._positions = grown_positions
        self._keys[slot + 1 : self._count + 1] = self._keys[slot : self._count]
        self._positions[slot + 1 : self._count + 1] = self._positions[slot : self._count]
        self._keys[slot] = key
        self._positions[slot] = int(position)
        self._count += 1

    def position_of(self, key: float):
        """Boundary position of ``key`` if it has been cracked on, else ``None``."""
        key = self.key(key)
        if key is None:
            return self._n
        slot = int(np.searchsorted(self._keys[: self._count], key))
        if slot < self._count and self._keys[slot] == key:
            return int(self._positions[slot])
        return None

    def piece_for(self, value: float) -> Piece:
        """The piece that currently contains ``value``.

        The piece spans from the boundary of the largest cracked key
        ``<= value`` to the boundary of the smallest cracked key ``> value``
        (column edges when no such keys exist).
        """
        key = self.key(value)
        keys = self._keys[: self._count]
        after = self._count if key is None else int(np.searchsorted(keys, key, side="right"))
        if after > 0:
            start = int(self._positions[after - 1])
            value_low = keys[after - 1].item()
        else:
            start = 0
            value_low = self._value_low
        if after < self._count:
            end = int(self._positions[after])
            value_high = keys[after].item()
        else:
            end = self._n
            value_high = self._value_high
        return Piece(start=start, end=end, value_low=value_low, value_high=value_high)

    def piece_sizes(self) -> list:
        """Sizes of all pieces in column order."""
        positions = self._positions[: self._count]
        sizes = np.diff(positions, prepend=0, append=self._n)
        return [int(size) for size in sizes]

    # ------------------------------------------------------------------
    # Persistence (checkpointing)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the boundary entries (keys in the
        column's dtype) and domain bounds."""
        return {
            "n": int(self._n),
            "value_low": self._value_low,
            "value_high": self._value_high,
            "keys": np.array(self._keys[: self._count]),
            "positions": np.array(self._positions[: self._count]),
        }

    @classmethod
    def from_state(cls, state: dict, values: np.ndarray) -> "CrackerIndex":
        """Rebuild the index of the cracker column ``values`` from
        :meth:`state_dict` output; keys of another dtype or out of order, or
        entries that are not the boundaries of ``values``' pieces, raise
        :class:`IndexStateError`."""
        keys, positions = state["keys"], state["positions"]
        index = cls(values.size, state["value_low"], state["value_high"], values.dtype)
        edges = np.concatenate(([0], positions, [values.size]))
        pieces = np.flatnonzero(edges[:-1] < edges[1:])  # the pieces holding values
        after, before = pieces > 0, pieces < keys.size
        if (int(state["n"]) != values.size or keys.dtype != values.dtype or positions.dtype != np.int64
                or keys.shape != positions.shape or (keys[1:] <= keys[:-1]).any() or (edges[1:] < edges[:-1]).any()
                or (np.minimum.reduceat(values, edges[pieces])[after] < keys[pieces[after] - 1]).any()
                or (np.maximum.reduceat(values, edges[pieces])[before] >= keys[pieces[before]]).any()):
            raise IndexStateError("the cracker index does not match the cracker column")
        if keys.size:
            index._keys, index._positions, index._count = keys.copy(), positions.copy(), keys.size
        return index


class AVLCrackerIndex:
    """The seed's AVL-tree-backed cracker index, kept as a tested reference.

    Behaviourally identical to :class:`CrackerIndex` (the flat-array
    implementation is differentially tested against this class); only the
    storage differs — an :class:`~repro.cracking.avl.AVLTree` of
    ``key -> position`` entries.
    """

    def __init__(self, n_elements: int, value_low: float, value_high: float) -> None:
        self._tree = AVLTree()
        self._n = int(n_elements)
        self._value_low = value_low
        self._value_high = value_high

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tree)

    @property
    def n_pieces(self) -> int:
        """Number of pieces the column is currently divided into."""
        return len(self._tree) + 1

    def boundaries(self) -> Iterator[Tuple[float, int]]:
        """Iterate over ``(pivot value, position)`` entries in value order."""
        return self._tree.items()

    # ------------------------------------------------------------------
    def add(self, key: float, position: int) -> None:
        """Record that the column has been cracked at ``key`` / ``position``."""
        self._tree.insert(key, int(position))

    def position_of(self, key: float):
        """Boundary position of ``key`` if it has been cracked on, else ``None``."""
        return self._tree.get(key)

    def piece_for(self, value: float) -> Piece:
        """The piece that currently contains ``value``."""
        floor = self._tree.floor_item(value)
        higher = self._tree.higher_item(value)
        start = floor[1] if floor is not None else 0
        value_low = floor[0] if floor is not None else self._value_low
        end = higher[1] if higher is not None else self._n
        value_high = higher[0] if higher is not None else self._value_high
        return Piece(start=int(start), end=int(end), value_low=value_low, value_high=value_high)

    def piece_sizes(self) -> list:
        """Sizes of all pieces in column order."""
        sizes = []
        previous = 0
        for _, position in self._tree.items():
            sizes.append(position - previous)
            previous = position
        sizes.append(self._n - previous)
        return sizes
