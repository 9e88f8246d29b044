"""The piece table: one refinement structure for PQ, PMSD and PB.

Before it converges, a progressive index is a set of *pieces* — value
ranges whose values lie together — refined a bounded δ at a time, each query
reading only the pieces its predicate overlaps (Sections 3.1–3.3).
:class:`PieceTable` holds them as a struct of arrays, one row per piece:

``start``/``end``
    The piece's slice ``final[start:end)`` of the array that ends sorted.
``state``
    ``WAITING``, ``COPYING`` and ``SCATTERING`` pieces read from their
    *source* — a root from its creation bucket, any other piece from its
    parent's flat child array (``child_sets[parent]``, an
    :class:`~repro.progressive.blocks.ExactBucketSet`); ``PENDING`` and
    ``PARTITIONING`` pieces lie unsorted in ``final``, ``SORTED`` ones
    sorted; a ``SPLIT`` piece holds nothing itself.
``parent``/``first``/``fanout``/``depth``
    A split piece's children are rows ``first .. first + fanout``, side by
    side and in value order; the roots are rows ``0 .. roots``.
``lo``/``hi``
    Routing bounds: the piece holds keys ``lo <= k < hi``, so a predicate
    ``[low, high]`` reaches it iff ``high >= lo`` and ``low < hi``.  Keys
    are values (PQ, PB) or relative radix keys (PMSD).
``vlo``/``vhi``/``split``
    PQ's rule: the inclusive value bounds (which steer prioritisation) and
    the pivot.
``progress``
    Elements copied or scattered (partitioned, in memory) so far.

The table owns what the families share: the worklist (an ordered dict with
a rank per piece; a waiting root off it is queued, in row order, when it
runs dry — PB refines its buckets one after another so), PQ's
prioritisation, the lookup, the answer (one seam call per run of pieces side
by side in one array), the α walk, the copy out of a source, PQ's two-way
split (which PB runs inside each bucket) and the checkpoint codec.  A family
keeps its split rule.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict

import numpy as np

from repro import kernels
from repro.core.query import QueryResult
from repro.errors import IndexStateError

#: Pieces of at most this many elements are sorted outright (the paper's
#: "smaller than the L1 cache": 4096 8-byte elements = 32 KiB).
DEFAULT_SORT_THRESHOLD = 4096

#: Depth at which a piece is sorted outright whatever its size: a guard
#: against value distributions whose bounds stop shrinking.
DEFAULT_MAX_DEPTH = 48

#: Piece states; below ``PENDING`` the values are still in the source.
WAITING, COPYING, SCATTERING, PENDING, PARTITIONING, SPLIT, SORTED = range(7)

#: Version of the checkpoint payload :meth:`PieceTable.state_dict` writes.
LAYOUT = 2

_INT_COLUMNS = ("start", "end", "state", "parent", "first", "fanout", "depth", "progress")
_BOUND_COLUMNS = ("lo", "hi", "vlo", "vhi", "split")
_COLUMNS = _INT_COLUMNS + _BOUND_COLUMNS + ("rank", "open")
_DEFAULTS = {"state": PENDING, "first": -1, "fanout": 0, "progress": 0, "rank": 0, "open": 0}


class PieceTable:
    """The pieces of one progressive index (see the module docstring).

    ``final`` is the array that ends sorted, ``sources`` the creation
    :class:`~repro.progressive.blocks.BucketSet` (root ``r`` reads bucket
    ``r``), ``sort_threshold``/``max_depth`` PQ's outright-sort rule and
    ``scratch`` the allocator of partition buffers past a memory budget.
    """

    def __init__(self, final, sources=None, sort_threshold: int = DEFAULT_SORT_THRESHOLD,
                 max_depth: int = DEFAULT_MAX_DEPTH, scratch=None) -> None:
        self.final, self.sources, self.scratch = final, sources, scratch
        self.sort_threshold, self.max_depth = max(1, int(sort_threshold)), max(1, int(max_depth))
        for name in _COLUMNS:
            setattr(self, name, [])
        self.child_sets: dict = {}
        self.worklist: OrderedDict = OrderedDict()
        self.roots = self._front = self._back = 0
        self.height = 1
        self._partial: dict = {}  # piece -> [scratch, low_fill, high_fill]

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def add(self, count: int = 1, parent: int = -1, depth: int = 0, **columns) -> int:
        """Append ``count`` pieces — per column a list of ``count`` values or
        one value for all, the columns not named at their defaults — and
        return the first row."""
        first = len(self.start)
        columns.update(parent=parent, depth=depth)
        for name in _COLUMNS:
            value = columns.get(name, _DEFAULTS.get(name))
            getattr(self, name).extend(value if isinstance(value, list) else [value] * count)
        self.roots += count if parent < 0 else 0
        self.height = max(self.height, depth + 1)
        return first

    def add_pq(self, start, end, lo, hi, vlo, vhi, parent=-1, depth=0, pivot=None) -> int:
        """A piece under PQ's rule, pivoted at the middle of its value
        bounds; sorted already when it holds at most one value."""
        return self.add(start=start, end=end, lo=lo, hi=hi, vlo=vlo, vhi=vhi, parent=parent, depth=depth,
                        split=vlo + (vhi - vlo) / 2.0 if pivot is None else pivot,
                        state=SORTED if end - start <= 1 else PENDING)

    def set_children(self, parent: int, first: int) -> None:
        """The rows from ``first`` on are ``parent``'s children: split it and
        queue the children that hold work."""
        self.state[parent], self.progress[parent] = SPLIT, 0
        self.first[parent], self.fanout[parent] = first, len(self.start) - first
        self.open[parent] = self.fanout[parent]
        for child in range(first, len(self.start)):
            if self.state[child] == SORTED:
                self.mark_sorted(child)
            else:
                self.enqueue(child)

    def enqueue(self, piece: int) -> None:
        self.rank[piece] = self._back
        self._back += 1
        self.worklist[piece] = None

    def head(self) -> int:
        return next(iter(self.worklist))

    def mark_sorted(self, *pieces: int) -> None:
        """The sibling ``pieces`` are sorted in ``final``; a split parent
        whose children all are is sorted too (its subtree is pruned)."""
        state, parent, count = self.state, self.parent, len(pieces)
        for piece in pieces:
            state[piece] = SORTED
        self._partial.pop(piece, None)
        while parent[piece] >= 0:
            piece = parent[piece]
            self.open[piece] -= count
            if self.open[piece] > 0 or state[piece] != SPLIT:
                return
            state[piece], count = SORTED, 1
            self.child_sets.pop(piece, None)

    @property
    def done(self) -> bool:
        """Whether every piece is sorted."""
        return not self.worklist and WAITING not in self.state[:self.roots]

    def has_work(self) -> bool:
        """Whether work is queued; a dry worklist queues the first waiting
        root."""
        if not self.worklist and WAITING in self.state[:self.roots]:
            self.enqueue(self.state.index(WAITING, 0, self.roots))
        return bool(self.worklist)

    def size(self, piece: int) -> int:
        return self.end[piece] - self.start[piece]

    def remaining(self) -> int:
        """Elements of work left in the worklist."""
        return sum(self.size(p) - (self.progress[p] if self.state[p] == PARTITIONING else 0)
                   for p in self.worklist)

    # ------------------------------------------------------------------
    # Lookup, answer, α, prioritisation
    # ------------------------------------------------------------------
    def leaves(self, low, high) -> list:
        """The non-empty unsplit pieces the keys ``[low, high]`` reach, in
        value order."""
        found: list = []
        self._visit(0, self.roots, low, high, found)
        return found

    def _visit(self, first: int, stop: int, low, high, found: list) -> None:
        state, start, end = self.state, self.start, self.end
        for piece in range(bisect_right(self.hi, low, first, stop), bisect_right(self.lo, high, first, stop)):
            if state[piece] == SPLIT:
                child = self.first[piece]
                self._visit(child, child + self.fanout[piece], low, high, found)
            elif end[piece] > start[piece]:
                found.append(piece)

    def _where(self, piece: int) -> tuple:
        """``(array, offset, sorted)``: the values are ``array[start - offset
        : end - offset]`` (``array`` is ``None`` for a root in its bucket)."""
        state = self.state[piece]
        if state >= PENDING:
            return self.final, 0, state == SORTED
        parent = self.parent[piece]
        if parent < 0:
            return None, 0, False
        return self.child_sets[parent].data, self.start[parent], False

    def answer(self, low, high, keys) -> QueryResult:
        """The exact answer over the pieces ``keys`` (:meth:`leaves`'
        arguments; ``None``: no piece) reach, one seam call per run of pieces
        that meet in one array, all sorted or all not.  Pieces come in value
        order, so two in a row that share an array and meet are one slice."""
        result = QueryResult.empty()
        run = None  # [array, begin, stop, sorted]
        for piece in self.leaves(*keys) if keys is not None else ():
            array, offset, ordered = self._where(piece)
            begin = self.start[piece] - offset
            if run is not None and run[0] is array and run[2] == begin and run[3] == ordered:
                run[2] = self.end[piece] - offset
                continue
            if run is not None:
                result += _read(run, low, high)
            run = None if array is None else [array, begin, self.end[piece] - offset, ordered]
            if array is None:
                result += self.sources[piece].scan(low, high)
        return result if run is None else result + _read(run, low, high)

    def touched(self, low, high, keys, sorted_matches: bool) -> int:
        """The α walk: the elements a query scans — each unsorted piece it
        reaches, and with ``sorted_matches`` the matches of each sorted one
        below a root (PQ and PB binary-search those)."""
        total = 0
        state, start, end = self.state, self.start, self.end
        for piece in self.leaves(*keys) if keys is not None else ():
            if state[piece] != SORTED:
                total += end[piece] - start[piece]
            elif sorted_matches and self.parent[piece] >= 0:
                segment = self.final[start[piece]:end[piece]]
                total += max(0, int(np.searchsorted(segment, high, side="right")
                                    - np.searchsorted(segment, low, side="left")))
        return total

    def prioritize(self, low, high) -> None:
        """Move the queued pieces whose value bounds overlap ``[low, high]``
        to the front of the worklist, each side keeping its order.  A child's
        bounds lie within its parent's, so the descent visits the ``k``
        overlapping pieces and at most two more each."""
        worklist, vlo, vhi, state = self.worklist, self.vlo, self.vhi, self.state
        found: list = []
        stack = list(range(self.roots)) if worklist else []
        while stack:
            piece = stack.pop()
            if low <= vhi[piece] and high >= vlo[piece]:
                if piece in worklist:
                    found.append(piece)
                elif state[piece] == SPLIT:
                    stack.extend(range(self.first[piece], self.first[piece] + self.fanout[piece]))
        found.sort(key=self.rank.__getitem__, reverse=True)
        for piece in found:
            self._front -= 1
            self.rank[piece] = self._front
            worklist.move_to_end(piece, last=False)

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def refine(self, budget: int, step) -> int:
        """Apply ``step(piece, budget) -> elements`` to the head of the
        worklist until ``budget`` is spent or the worklist is empty (a dry
        one takes a waiting root first)."""
        processed = 0
        worklist, state = self.worklist, self.state
        self.has_work()
        while budget > 0 and worklist:
            spent = step(next(iter(worklist)), budget)
            processed += spent
            budget -= spent
            while worklist and state[next(iter(worklist))] >= SPLIT:
                worklist.popitem(last=False)
        return processed

    def finish(self) -> int:
        """Sort every queued piece outright (a pooled budget granting the
        rest of the phase; a piece caught mid-partition is still intact)."""
        processed = 0
        while self.worklist:
            piece, _ = self.worklist.popitem(last=False)
            processed += self.size(piece)
            self.final[self.start[piece]:self.end[piece]].sort()
            self.mark_sorted(piece)
        return processed

    def source(self, piece: int):
        """The block list holding a piece's values while it is in its source."""
        parent = self.parent[piece]
        if parent < 0:
            return self.sources[piece]
        return self.child_sets[parent][piece - self.first[parent]]

    def leave_source(self, piece: int) -> None:
        """The piece's values moved on: release its creation bucket, or its
        parent's child array once the last sibling (siblings go in order)
        has left it."""
        parent = self.parent[piece]
        if parent < 0:
            self.sources[piece].clear()
        elif self.end[piece] == self.end[parent]:
            self.child_sets.pop(parent, None)

    def copy(self, piece: int, budget: int) -> int:
        """Move up to ``budget`` of the piece's values from its source into
        ``final``; once all are there it is ``PENDING`` (``SORTED`` if it
        holds one value).  Returns the elements copied."""
        self.state[piece] = COPYING
        size, done = self.size(piece), self.progress[piece]
        copied = self.source(piece).drain_into(
            self.final, self.start[piece] + done, done, min(budget, size - done))
        self.progress[piece] = done + copied
        if done + copied >= size:
            self.leave_source(piece)
            self.state[piece], self.progress[piece] = PENDING, 0
            if size <= 1:
                self.mark_sorted(piece)
        return copied

    def sort_step(self, piece: int, budget: int) -> int:
        """PQ's rule: sort a small (deep, constant) piece outright; else
        partition it around its pivot — in place when the budget covers it,
        else ``budget`` elements at a time through a two-ended scratch buffer
        (queries meanwhile read the intact original) — and split it two
        ways.  Returns the elements processed."""
        start, end = self.start[piece], self.end[piece]
        size = end - start
        if self.state[piece] == PENDING:
            vlo, vhi = self.vlo[piece], self.vhi[piece]
            flat = 0 if isinstance(vlo, float) or isinstance(vhi, float) else 1
            if self.final.dtype.kind != "f":  # it holds the integers of [ceil(vlo), floor(vhi)]
                vlo, vhi = -(-vlo // 1), vhi // 1  # NaN and ±inf give NaN: not flat
            if size <= self.sort_threshold or self.depth[piece] >= self.max_depth or vhi - vlo <= flat:
                self.final[start:end].sort()
                self.mark_sorted(piece)
                return size
            if budget >= size:
                self.split_two(piece, start + kernels.partition_swap(self.final[start:end], self.split[piece]))
                return size
            scratch = (self.scratch.allocate(size, self.final.dtype) if self.scratch is not None
                       else np.empty(size, dtype=self.final.dtype))
            self._partial[piece] = [scratch, 0, size]
            self.state[piece], self.progress[piece] = PARTITIONING, 0
        partial, done = self._partial[piece], self.progress[piece]
        take = min(budget, size - done)
        below = kernels.partition_chunk(self.final[start + done:start + done + take], self.split[piece], *partial)
        partial[1] += below
        partial[2] -= take - below
        self.progress[piece] = done + take
        if done + take >= size:
            self.final[start:end] = partial[0]
            self.split_two(piece, start + partial[1])
            del self._partial[piece]
        return take

    def split_two(self, piece: int, boundary: int) -> None:
        """Children at ``boundary``: the values below the pivot, then the
        rest.  When one side is empty the one child keeps the range with
        narrowed bounds, so the recursion still ends."""
        start, end, pivot = self.start[piece], self.end[piece], self.split[piece]
        depth, first = self.depth[piece] + 1, len(self.start)
        boundary = min(max(boundary, start), end)
        if boundary > start:
            self.add_pq(start, boundary, self.lo[piece], pivot, self.vlo[piece], pivot, piece, depth)
        if boundary < end:
            self.add_pq(boundary, end, pivot, self.hi[piece], pivot, self.vhi[piece], piece, depth)
        self.set_children(piece, first)

    # ------------------------------------------------------------------
    # Checkpoint codec
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The table's arrays.  A piece caught mid-partition is saved as
        ``PENDING`` (its scratch buffer is process memory, its range in
        ``final`` intact); a child array keeps the values of the children
        still reading it (while it fills, the prefix of each)."""
        state = {name: np.array(getattr(self, name), dtype=np.int64) for name in _INT_COLUMNS}
        partitioning = state["state"] == PARTITIONING
        state["state"][partitioning], state["progress"][partitioning] = PENDING, 0
        for name in _BOUND_COLUMNS:  # float64 where exact; radix keys exceed it
            values = getattr(self, name)
            exact = values and all(isinstance(value, float) for value in values)
            state[name] = np.array(values, dtype=np.float64) if exact else list(values)
        state.update(
            layout=LAYOUT, roots=self.roots, height=self.height,
            worklist=np.array(list(self.worklist), dtype=np.int64),
            child_sets=[{"piece": piece, "buckets": self._reading(piece)} for piece in sorted(self.child_sets)],
        )
        return state

    def _reading(self, piece: int) -> list:
        """The values of ``piece``'s child array that children still read."""
        filling, first = self.state[piece] == SCATTERING, self.first[piece]
        return [values.to_array()[:None if filling or self.state[first + child] < PENDING else 0]
                for child, values in enumerate(self.child_sets[piece].buckets)]

    @classmethod
    def from_state(cls, state: dict, final, sources, child_set, outer: tuple, pq_rule: bool = True,
                   **options) -> "PieceTable":
        """Rebuild a table from :meth:`state_dict` output over ``final`` and
        the creation buckets ``sources``.  ``child_set(table, piece, sizes)``
        makes an empty exact-offset set (``sizes=None``: the histogram of the
        piece's values); ``outer`` are the keys the roots span together;
        ``pq_rule`` pieces carry value bounds and pivots.
        Whatever is inconsistent — a column of another type or length, a
        piece outside its parent or not meeting its sibling, a link one way
        only, a state never saved, values not where the state says, a sorted
        piece that is not, a PQ-rule piece holding values outside its bounds, an
        unsorted piece off the worklist but a waiting root —
        raises :class:`~repro.errors.IndexStateError` (a key missing or of
        another type one of :data:`~repro.errors.PAYLOAD_ERRORS`, which
        :meth:`~repro.core.index.BaseIndex.load_state` turns into one)."""
        table = cls(final, sources, **options)
        table._load(state, child_set, pq_rule)
        if table.lo[0] != outer[0] or table.hi[table.roots - 1] != outer[1]:
            raise IndexStateError("the roots do not span the key space")
        return table

    def _load(self, state: dict, child_set, pq_rule: bool) -> None:
        if state["layout"] != LAYOUT:
            raise IndexStateError(f"piece table layout {state['layout']!r}, expected {LAYOUT}")
        for name in _INT_COLUMNS + ("worklist",):
            if not isinstance(state[name], np.ndarray) or state[name].dtype != np.int64:
                raise IndexStateError(f"piece column {name!r} is not an int64 array")
        for name in _BOUND_COLUMNS:
            values = state[name]
            values = values.tolist() if isinstance(values, np.ndarray) and values.dtype == np.float64 else values
            if not isinstance(values, list) or any(
                    isinstance(v, bool) or not isinstance(v, (int, float, type(None))) for v in values):
                raise IndexStateError(f"piece column {name!r} is not a list of numbers")
            setattr(self, name, values)
        for name in _INT_COLUMNS:
            setattr(self, name, state[name].tolist())
        rows = len(self.start)
        if any(len(getattr(self, name)) != rows for name in _INT_COLUMNS + _BOUND_COLUMNS):
            raise IndexStateError("piece columns differ in length")
        if {v is not None for name in ("vlo", "vhi", "split") for v in getattr(self, name)} - {pq_rule} or (
                PENDING in self.state and not pq_rule):
            raise IndexStateError("piece value bounds or states of another rule")
        self.rank, self.open = [0] * rows, [0] * rows
        self.roots, self.height = _count(state["roots"], rows), _count(state["height"], 1 << 30)
        self._check_tree(rows)
        for spec in state["child_sets"]:
            piece = _count(spec["piece"], rows - 1)
            kids = range(self.first[piece], self.first[piece] + self.fanout[piece])
            if self.state[piece] not in (SCATTERING, SPLIT):
                raise IndexStateError(f"piece {piece} holds no child array")
            sizes = np.array([self.size(c) for c in kids]) if self.state[piece] == SPLIT else None
            self.child_sets[piece] = children = child_set(self, piece, sizes)
            if len(spec["buckets"]) != children.n_buckets:
                raise IndexStateError(f"child array of piece {piece}: wrong fan-out")
            children.restore(spec["buckets"])
        self._check_sources(rows)
        worklist = state["worklist"].tolist()
        unsorted = {p for p in range(rows) if self.state[p] not in (SPLIT, SORTED) and self._reachable(p)}
        if len(set(worklist)) != len(worklist) or not unsorted >= set(worklist) or any(
                self.parent[p] >= 0 or self.state[p] != WAITING for p in unsorted.difference(worklist)):
            raise IndexStateError("the worklist is not the unsorted pieces (but waiting roots)")
        for piece in worklist:
            self.enqueue(piece)

    def _reachable(self, piece: int) -> bool:
        while self.parent[piece] >= 0:
            piece = self.parent[piece]
            if self.state[piece] != SPLIT:
                return False
        return True

    def _check_tree(self, rows: int) -> None:
        """Pieces tile ``final`` and their parents, links point both ways,
        routing bounds chain, every state is one a checkpoint saves."""
        start, end, state, parent, first, fanout, depth = (
            self.start, self.end, self.state, self.parent, self.first, self.fanout, self.depth)
        n = 0 if self.final is None else self.final.size
        if not 0 < self.roots <= rows or start[0] != 0 or end[self.roots - 1] != n:
            raise IndexStateError("the roots do not cover the final array")
        self._check_siblings(range(self.roots), -1)
        for piece in range(rows):
            owner, moving = parent[piece], state[piece] in (COPYING, SCATTERING)
            if (not 0 <= start[piece] <= end[piece] <= n or state[piece] not in _SAVED_STATES
                    or not 0 <= self.progress[piece] <= (end[piece] - start[piece]) * moving
                    or (owner < 0) != (piece < self.roots) or (owner < 0 and depth[piece] != 0)):
                raise IndexStateError(f"piece {piece}: bad range, state, progress or parent")
            if owner >= 0 and not (owner < piece and first[owner] <= piece < first[owner] + fanout[owner]
                                   and depth[piece] == depth[owner] + 1):
                raise IndexStateError(f"piece {piece}: not a child of {owner}")
            if fanout[piece] or state[piece] == SPLIT:
                kids = range(first[piece], first[piece] + fanout[piece])
                if (not 0 < fanout[piece] or not piece < first[piece] <= rows - fanout[piece]
                        or start[kids[0]] != start[piece] or end[kids[-1]] != end[piece]):
                    raise IndexStateError(f"piece {piece}: its children do not cover it")
                self._check_siblings(kids, piece)
                self.open[piece] = sum(state[c] != SORTED for c in kids)
        ordered = self.final[1:] >= self.final[:-1] if n else None
        for piece in range(rows):  # under PQ's rule, values also lie within the routing bounds
            values = self.final[start[piece]:end[piece]]
            if state[piece] in (PENDING, SORTED) and values.size and self._reachable(piece) and (
                    state[piece] == SORTED and not ordered[start[piece]:end[piece] - 1].all()
                    or self.vlo[piece] is not None
                    and not self.lo[piece] <= values.min().item() <= values.max().item() < self.hi[piece]):
                raise IndexStateError(f"piece {piece} is not sorted or leaves its bounds")

    def _check_siblings(self, siblings, owner: int) -> None:
        start, end, lo, hi = self.start, self.end, self.lo, self.hi
        if any(end[a] != start[b] or hi[a] != lo[b] for a, b in zip(siblings, siblings[1:])) or any(
                self.parent[p] != owner or not lo[p] <= hi[p] for p in siblings):
            raise IndexStateError(f"the children of {owner} do not meet")
        first, last = siblings[0], siblings[-1]
        if owner >= 0 and not (lo[owner] <= lo[first] and hi[last] <= hi[owner]
                               and (lo[owner] == lo[first] or hi[last] == hi[owner])):
            raise IndexStateError(f"the children of piece {owner} leave its bounds")

    def _check_sources(self, rows: int) -> None:
        """Each piece's values are where its state says: all of them in its
        source while it reads from there, a copy's prefix in ``final``
        already, a scatter's cursors at its progress."""
        for piece in range(rows):
            state, owner = self.state[piece], self.parent[piece]
            if owner < 0:
                held = 0 if self.sources is None else len(self.sources[piece])
            elif owner in self.child_sets:
                held = len(self.child_sets[owner][piece - self.first[owner]])
            else:
                held = 0
            if held != (self.size(piece) if state < PENDING else 0):
                raise IndexStateError(f"piece {piece}: {held} values in its source, state {state}")
            done = self.progress[piece]
            copied = self.final[self.start[piece]:self.start[piece] + done]
            if state == COPYING and not np.array_equal(copied, self.source(piece).slice_array(0, done)):
                raise IndexStateError(f"piece {piece}: copy progress does not match")
            if state == SCATTERING and (piece not in self.child_sets or len(self.child_sets[piece]) != done):
                raise IndexStateError(f"piece {piece}: scatter progress does not match")


_SAVED_STATES = (WAITING, COPYING, SCATTERING, PENDING, SPLIT, SORTED)

def _count(value, limit: int) -> int:
    """A non-negative int up to ``limit``, or a typed error."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= limit:
        raise IndexStateError(f"bad count {value!r}")
    return value


def _read(run: list, low, high) -> QueryResult:
    array, begin, stop, ordered = run
    if ordered:
        return QueryResult.from_sorted(array[begin:stop], low, high)
    return QueryResult.from_range(array[begin:stop], low, high)
