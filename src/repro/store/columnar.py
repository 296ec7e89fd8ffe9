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

__all__ = ["Run", "EMPTY_RUN", "build_runs", "group_starts"]

_EMPTY_MV = memoryview(array("q"))
_ZERO_STARTS = memoryview(array("q", [0]))


class Run:
    """One sorted permutation: three columns + first-key offsets.

    ``a``/``b``/``c`` are memoryviews of int64 in permutation order (for
    SPO: a=subject, b=predicate, c=object).  ``starts`` has
    ``max(a) + 2`` entries; ids beyond it simply have no rows.
    ``owner`` keeps the backing buffers (numpy arrays or an open mmap)
    alive for as long as the run is referenced.
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
        immutable, so the cache never invalidates.
        """
        cols = self._np_cols
        if cols is None:
            cols = (
                _np.frombuffer(self.a, dtype=_np.int64),
                _np.frombuffer(self.b, dtype=_np.int64),
                _np.frombuffer(self.c, dtype=_np.int64),
                _np.frombuffer(self.starts, dtype=_np.int64),
            )
            self._np_cols = cols
        return cols

    def key12(self, m: int):
        """Composite sort key ``a * m + b`` for vectorized two-key probes.

        ``m`` must exceed every value in ``b`` (callers pass the term
        dictionary size), which keeps the composite order identical to the
        lexicographic ``(a, b)`` order so ``searchsorted`` can bound both
        keys in one call.  Cached per distinct ``m``; the dictionary only
        grows, so at most a handful of composites exist per run.
        """
        cached = self._key12
        if cached is not None and cached[0] == m:
            return cached[1]
        cols = self.as_numpy()
        keys = cols[0] * m + cols[1]
        self._key12 = (m, keys)
        return keys

    def range1(self, x: int) -> tuple[int, int]:
        """Row range ``[lo, hi)`` whose first column equals ``x``."""
        starts = self.starts
        if 0 <= x < len(starts) - 1:
            return starts[x], starts[x + 1]
        return 0, 0

    def range2(self, x: int, y: int) -> tuple[int, int]:
        """Row range whose first two columns equal ``(x, y)``."""
        starts = self.starts
        if not 0 <= x < len(starts) - 1:
            return 0, 0
        lo = starts[x]
        hi = starts[x + 1]
        if lo == hi:
            return 0, 0
        b = self.b
        lo = bisect_left(b, y, lo, hi)
        hi = bisect_right(b, y, lo, hi)
        return lo, hi

    def find(self, x: int, y: int, z: int) -> int:
        """Row index of ``(x, y, z)``, or -1 when absent."""
        lo, hi = self.range2(x, y)
        if lo == hi:
            return -1
        i = bisect_left(self.c, z, lo, hi)
        if i < hi and self.c[i] == z:
            return i
        return -1

    def rows(self) -> Iterable[tuple[int, int, int]]:
        """All rows in sorted order, as tuples."""
        return zip(self.a, self.b, self.c)

    def __len__(self) -> int:
        return self.n


#: The shared empty run (no rows, no keys).
EMPTY_RUN = Run(_EMPTY_MV, _EMPTY_MV, _EMPTY_MV, _ZERO_STARTS)


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
