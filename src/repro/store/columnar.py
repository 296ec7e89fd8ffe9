"""Sorted-run column machinery for the columnar triple index.

A :class:`Run` is one permutation of the triple table held as three
parallel int64 columns sorted lexicographically by ``(a, b, c)``, plus a
CSR-style offset array over the first key: ``starts[x] .. starts[x + 1]``
is the contiguous row range whose first column equals ``x``.  Term ids are
dense, so the offset array turns the outer dict hop of the old
nested-hash layout into one O(1) array read; the remaining keys resolve
with binary searches bounded to that range.  Scans come back as zero-copy
``memoryview`` slices over the columns — contiguous id ranges the
execution layer can iterate (and, later, batch) without per-key hops.

Columns are exposed as memoryviews so they can be backed either by heap
numpy buffers (in-memory graphs) or by an ``mmap`` of a snapshot
file (see :mod:`repro.store.snapshot`) — the scan code cannot tell the
difference.  Sorting and offset building go through numpy
(``lexsort``/``bincount`` on millions of rows).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable

import numpy as _np

__all__ = ["Run", "EMPTY_RUN", "EMPTY_LEVEL", "build_runs", "group_starts", "level_run"]

_EMPTY_MV = memoryview(array("q"))
_ZERO_STARTS = memoryview(array("q", [0]))


class Run:
    """One sorted permutation: three columns + first-key offsets.

    ``a``/``b``/``c`` are memoryviews of int64 in permutation order (for
    SPO: a=subject, b=predicate, c=object).  ``starts`` has
    ``max(a) + 2`` entries; ids beyond it simply have no rows.  A
    level-0 run (:func:`level_run`, the small run pending writes land
    in) has no offsets (``starts`` is None): its first key is bisected,
    so rebuilding it costs its rows, not the id range.  ``owner`` keeps
    the backing buffers (numpy arrays or an open mmap) alive for as long
    as the run is referenced.
    """

    __slots__ = ("a", "b", "c", "starts", "n", "owner", "_np_cols", "_key12")

    def __init__(self, a, b, c, starts, owner=None):
        self.a = a
        self.b = b
        self.c = c
        self.starts = starts
        self.n = len(a)
        self.owner = owner
        self._np_cols = None
        self._key12 = None

    def as_numpy(self):
        """The columns as int64 numpy views ``(a, b, c, starts)``.

        Zero-copy (``frombuffer`` over the memoryviews, heap- or
        mmap-backed alike), cached for the run's lifetime.  Runs are
        immutable, so the cache never invalidates.  ``starts`` is None
        for a level-0 run.
        """
        cols = self._np_cols
        if cols is None:
            cols = tuple(
                None if view is None else _np.frombuffer(view, dtype=_np.int64)
                for view in (self.a, self.b, self.c, self.starts))
            self._np_cols = cols
        return cols

    def _pair_keys(self):
        """``(m, a * m + b)`` with ``m = max(b) + 2``: one composite sort
        key per row, in the lexicographic ``(a, b)`` order, cached."""
        cached = self._key12
        if cached is None:
            a, b, _c, _starts = self.as_numpy()
            m = int(b.max()) + 2 if self.n else 2
            cached = self._key12 = (m, a * m + b)
        return cached

    def _pair_queries(self, x, y):
        """``(keys, queries)``: the composite key of every ``(x, y)``.

        A second key is clipped to ``[-1, m - 1]`` first, values no row
        holds: unclipped, ``x·m + y`` would alias another ``(a, b)``
        group (``x·m − k == (x−1)·m + (m−k)``), so a negative plan-local
        pseudo id or an id past the run could match a stored pair.
        Clipped, a missing pair still sorts where it belongs.
        """
        m, keys = self._pair_keys()
        return keys, x * m + _np.minimum(_np.maximum(y, -1), m - 1)

    def pair_ranges(self, x, y):
        """Row ranges ``[lo, hi)`` whose first two columns equal
        ``(x, y)``, for int64 arrays (either may be a scalar): one
        ``searchsorted`` pair over the composite key."""
        keys, query = self._pair_queries(x, y)
        return (_np.searchsorted(keys, query, side="left"),
                _np.searchsorted(keys, query, side="right"))

    def find_rows(self, x, y, z):
        """Row index of every ``(x, y, z)`` (int64 arrays, ``y`` may be a
        scalar), -1 where absent."""
        return self.find_in(*self.pair_ranges(x, y), z)

    def find_in(self, lo, hi, z):
        """Row index of every ``z`` inside its third-column row range
        ``[lo, hi)`` (from :meth:`pair_ranges`), -1 where absent.

        A range holding one row — the star-schema case — resolves in
        array operations; wider ranges bisect per row.
        """
        if _np.shape(z) != lo.shape:
            z = _np.broadcast_to(z, lo.shape)
        found = _np.full(len(lo), -1, dtype=_np.int64)
        counts = hi - lo
        single = _np.nonzero(counts == 1)[0]
        if len(single):
            at = lo[single]
            hit = self.as_numpy()[2][at] == z[single]
            found[single[hit]] = at[hit]
        c = self.c
        for i in _np.nonzero(counts > 1)[0].tolist():
            row_lo, row_hi, target = int(lo[i]), int(hi[i]), int(z[i])
            j = bisect_left(c, target, row_lo, row_hi)
            if j < row_hi and c[j] == target:
                found[i] = j
        return found

    def range1(self, x: int) -> tuple[int, int]:
        """Row range ``[lo, hi)`` whose first column equals ``x``."""
        starts = self.starts
        if starts is None:
            lo = bisect_left(self.a, x)
            return lo, bisect_right(self.a, x, lo)
        if 0 <= x < len(starts) - 1:
            return starts[x], starts[x + 1]
        return 0, 0

    def range2(self, x: int, y: int) -> tuple[int, int]:
        """Row range whose first two columns equal ``(x, y)``."""
        starts = self.starts
        if starts is None:
            lo, hi = self.range1(x)
        elif 0 <= x < len(starts) - 1:
            lo, hi = starts[x], starts[x + 1]
        else:
            return 0, 0
        if lo == hi:
            return 0, 0
        b = self.b
        lo = bisect_left(b, y, lo, hi)
        return lo, bisect_right(b, y, lo, hi)

    def find(self, x: int, y: int, z: int) -> int:
        """Row index of ``(x, y, z)``, or -1 when absent."""
        lo, hi = self.range2(x, y)
        if lo == hi:
            return -1
        i = bisect_left(self.c, z, lo, hi)
        if i < hi and self.c[i] == z:
            return i
        return -1

    def rank(self, x: int, y: int, z: int) -> int:
        """How many rows sort before ``(x, y, z)``: where it would go."""
        a, b = self.a, self.b
        lo = bisect_left(a, x)
        hi = bisect_right(a, x, lo)
        lo = bisect_left(b, y, lo, hi)
        return bisect_left(self.c, z, lo, bisect_right(b, y, lo, hi))

    def ranks(self, x, y, z, ranges=None):
        """:meth:`rank` of every row of three int64 arrays.  ``ranges``
        are the rows' :meth:`pair_ranges`, computed when omitted.

        The ``(a, b)`` pair range places a row among the groups; for the
        rows that land inside a group, one ``searchsorted`` over
        ``(group number, c)`` places them within it.
        """
        lo, hi = self.pair_ranges(x, y) if ranges is None else ranges
        inside = _np.nonzero(lo < hi)[0]
        if not len(inside):
            return lo
        _a, _b, c, _starts = self.as_numpy()
        keys = self._pair_keys()[1]
        group = _np.zeros(self.n, dtype=_np.int64)
        _np.cumsum(keys[1:] != keys[:-1], out=group[1:])
        mc = int(max(c.max(), z.max())) + 1
        lo = lo.copy()
        lo[inside] = _np.searchsorted(group * mc + c,
                                      group[lo[inside]] * mc + z[inside])
        return lo

    def with_rows(self, x, y, z, at) -> "Run":
        """A level-0 run holding this run's rows and the given ones
        (sorted in this run's order, distinct, absent from this run),
        whose :meth:`ranks` are ``at``."""
        # Row i of the batch lands after at[i] old rows and i new ones.
        slots = at + _np.arange(len(x))
        kept = _np.ones(self.n + len(x), dtype=bool)
        kept[slots] = False
        cols = []
        for col, new in zip(self.as_numpy(), (x, y, z)):
            out = _np.empty(len(kept), dtype=_np.int64)
            out[slots] = new
            out[kept] = col
            cols.append(out)
        return level_run(*cols)

    def without_rows(self, at) -> "Run":
        """A level-0 run holding this run's rows but those at ``at``."""
        a, b, c, _starts = self.as_numpy()
        return level_run(_np.delete(a, at), _np.delete(b, at), _np.delete(c, at))

    def rows(self) -> Iterable[tuple[int, int, int]]:
        """All rows in sorted order, as tuples."""
        return zip(self.a, self.b, self.c)

    def __len__(self) -> int:
        return self.n


#: The shared empty run (no rows, no keys).
EMPTY_RUN = Run(_EMPTY_MV, _EMPTY_MV, _EMPTY_MV, _ZERO_STARTS)
#: The shared empty level-0 run.
EMPTY_LEVEL = Run(_EMPTY_MV, _EMPTY_MV, _EMPTY_MV, None)


def level_run(a, b, c) -> Run:
    """A run without offsets over sorted contiguous numpy columns."""
    if not len(a):
        return EMPTY_LEVEL
    run = Run(memoryview(a), memoryview(b), memoryview(c), None, (a, b, c))
    run._np_cols = (a, b, c, None)
    return run


def _first_key_offsets(a) -> memoryview:
    """CSR offsets over a sorted, non-empty first-key column."""
    max_id = int(a[-1])
    counts = _np.bincount(a, minlength=max_id + 1)
    starts = _np.zeros(max_id + 2, dtype=_np.int64)
    _np.cumsum(counts, out=starts[1 : max_id + 2])
    return memoryview(starts)


def _sorted_run(a, b, c) -> Run:
    """A run over non-empty, already sorted contiguous numpy columns."""
    return Run(memoryview(a), memoryview(b), memoryview(c),
               _first_key_offsets(a), (a, b, c))


def _finish(a, b, c) -> Run:
    """Sort non-empty numpy columns lexicographically and attach offsets."""
    order = _np.lexsort((c, b, a))
    return _sorted_run(_np.ascontiguousarray(a[order]),
                       _np.ascontiguousarray(b[order]),
                       _np.ascontiguousarray(c[order]))


def build_run_from_columns(a, b, c) -> Run:
    """A run over already-sorted int64 memoryviews (snapshot load path).

    Only the offset array is (re)built; the columns are used as-is, so a
    caller holding mmap-backed views gets an O(columns-of-one-key) load.
    """
    if not len(a):
        return EMPTY_RUN
    return Run(a, b, c, _first_key_offsets(_np.frombuffer(a, dtype=_np.int64)))


def group_starts(*columns):
    """Boolean mask of the rows of sorted, non-empty columns that open a
    new group of equal values across all of ``columns``."""
    first = columns[0]
    mask = _np.empty(len(first), dtype=bool)
    mask[0] = True
    changed = first[1:] != first[:-1]
    for col in columns[1:]:
        changed |= col[1:] != col[:-1]
    mask[1:] = changed
    return mask


def build_runs(s, p, o) -> tuple[Run, Run, Run]:
    """The (SPO, POS, OSP) runs over the distinct rows of three int64
    columns given in any order, with any repeats: one ``lexsort`` per
    permutation."""
    if not len(s):
        return EMPTY_RUN, EMPTY_RUN, EMPTY_RUN
    spo = _finish(s, p, o)
    s, p, o, _starts = spo.as_numpy()
    distinct = group_starts(s, p, o)
    if not distinct.all():
        spo = _sorted_run(s[distinct], p[distinct], o[distinct])
        s, p, o, _starts = spo.as_numpy()
    return spo, _finish(p, o, s), _finish(o, s, p)
