"""Low-level storage: term dictionary and triple permutation indexes.

The design follows the classic dictionary-encoded triple table used by RDF
stores (and surveyed in "A design space for RDF data representations",
VLDB J. 2022, which the paper cites): every term is mapped to a dense
integer id once, and triples are stored as id-rows in three permutations
(SPO, POS, OSP).  Any of the eight triple-pattern shapes then resolves
against the permutation that binds the most positions.

Every :class:`~repro.store.graph.Graph` stores its triples in a
:class:`TripleIndex`.  Each permutation is one sorted **main run**
(:class:`~repro.store.columnar.Run`: three contiguous int64 columns with
a CSR offset array over the first key), a small sorted **level-0 run**
(L0) that writes merge into, and a sorted array of the main run's
**dead positions** (tombstones).  Reads serve ``main − dead ∪ L0`` from
sorted columns alone — O(1) offset lookups and bounded binary searches
per key, or whole-array slices and ``searchsorted`` masks for the
batched engine — so a read after a write takes the same path as one
before it.  Once L0 and the tombstones outgrow a quarter of the main run
they fold into a fresh one (amortized O(n) total merge work over an
n-triple ingest); a bulk write that large merges its id columns
directly.  Main runs can be mmap-backed (see
:mod:`repro.store.snapshot`), which makes bootstrap O(file open).

The index doubles as the engine's **statistics catalog**: per-predicate
triple counts and distinct subject/object counts are maintained
incrementally on every add/remove, and every single-constant ``count``
shape stays cheap (offset reads and bisects), so the join-order
optimizer never pays O(data) to cost a plan.

The execution layer consumes the scan API — ``scan_objects`` /
``scan_subjects`` / ``scan_predicates`` / ``predicate_pairs`` /
``contains`` — or, batched, :meth:`TripleIndex.levels`; the scans
return zero-copy memoryview slices of the main run wherever no
tombstone or L0 row touches the range.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as _np

from ..rdf.terms import Literal, Node
from .columnar import EMPTY_LEVEL, EMPTY_RUN, Run, build_runs, group_starts

__all__ = [
    "MALFORMED",
    "NOT_NUMERIC",
    "NumericMemo",
    "numeric_of",
    "TermDictionary",
    "TripleIndex",
    "PredicateStats",
    "in_sorted",
]

#: Fold L0 and the tombstones into the main runs once a removal leaves
#: this many pending rows *and* at least a quarter of the run's rows.
DEFAULT_FLUSH_THRESHOLD = 65536


@dataclass(frozen=True)
class PredicateStats:
    """Catalog entry for one predicate, maintained incrementally.

    ``triples / distinct_subjects`` is the average out-degree (expected
    matches of ``?s p ?o`` once ``?s`` is bound), and symmetrically for
    objects — the two selectivity factors the join-order cost model uses.
    """

    triples: int
    distinct_subjects: int
    distinct_objects: int

    @property
    def subject_fanout(self) -> float:
        """Average matches per bound subject (>= 1.0 when non-empty)."""
        return self.triples / self.distinct_subjects if self.distinct_subjects else 0.0

    @property
    def object_fanout(self) -> float:
        """Average matches per bound object (>= 1.0 when non-empty)."""
        return self.triples / self.distinct_objects if self.distinct_objects else 0.0


_EMPTY_STATS = PredicateStats(0, 0, 0)


class _Marker:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: :meth:`NumericMemo.numeric` for a term that is not a numeric literal.
NOT_NUMERIC = _Marker("NOT_NUMERIC")
#: :meth:`NumericMemo.numeric` for a numeric literal whose lexical form is
#: NaN or does not parse (``numeric_value()`` raises for it).
MALFORMED = _Marker("MALFORMED")


def numeric_of(term: Node):
    """The float an aggregate or comparison reads for ``term``, else
    :data:`NOT_NUMERIC` or :data:`MALFORMED`."""
    if not isinstance(term, Literal) or not term.is_numeric:
        return NOT_NUMERIC
    try:
        return term.numeric_value()
    except ValueError:
        return MALFORMED


class NumericMemo:
    """Mixin giving a term dictionary a lazily filled id → number memo.

    Filled the first time an id is aggregated or compared; ids are
    append-only, so an entry stays valid for the dictionary's lifetime.
    It grows with the ids actually looked up, not with the dictionary.
    Plain dict reads and writes keep it safe for concurrent readers (a
    race only recomputes the same value).  Plan-local negative ids are
    not dictionary ids and never reach it.
    """

    __slots__ = ()

    def numeric(self, term_id: int):
        """``numeric_of(self.decode(term_id))``, memoized."""
        value = self._numbers.get(term_id)
        if value is None:
            value = numeric_of(self.decode(term_id))
            self._numbers[term_id] = value
        return value


class TermDictionary(NumericMemo):
    """Bidirectional mapping between RDF terms and dense integer ids."""

    __slots__ = ("_term_to_id", "_id_to_term", "_numbers")

    def __init__(self) -> None:
        self._term_to_id: dict[Node, int] = {}
        self._id_to_term: list[Node] = []
        self._numbers: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._id_to_term)

    def encode(self, term: Node) -> int:
        """Return the id for ``term``, assigning a fresh one if unseen."""
        existing = self._term_to_id.get(term)
        if existing is not None:
            return existing
        new_id = len(self._id_to_term)
        self._term_to_id[term] = new_id
        self._id_to_term.append(term)
        return new_id

    def lookup(self, term: Node) -> int | None:
        """Return the id for ``term``, or ``None`` when never stored."""
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> Node:
        """Return the term for an id assigned by :meth:`encode`."""
        return self._id_to_term[term_id]

    def terms(self) -> Iterator[Node]:
        """All terms in id order."""
        return iter(self._id_to_term)

    @property
    def materialized_terms(self) -> int:
        """How many ids currently have a live :class:`Node` object.

        Always everything for this eager dictionary; the lazy snapshot
        dictionary reports only its decode cache (see
        :class:`~repro.store.snapshot.SnapshotTermDictionary`).
        """
        return len(self._id_to_term)


def _count_up(counts: dict, key) -> None:
    counts[key] = counts.get(key, 0) + 1


def _count_down(counts: dict, key) -> None:
    remaining = counts[key] - 1
    if remaining:
        counts[key] = remaining
    else:
        del counts[key]


#: No rows, as the ``(s, p, o)`` columns of a batch.
_NO_ROWS = (_np.empty(0, dtype=_np.int64),) * 3


def _columns(row):
    """One row of ids as three one-element int64 columns."""
    return tuple(_np.array([x], dtype=_np.int64) for x in row)


#: No dead positions.
_NO_POSITIONS = _np.empty(0, dtype=_np.int64)
#: Each permutation's column order over ``(s, p, o)``: SPO, POS, OSP.
_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def in_sorted(values, keys):
    """Boolean mask: which ``keys`` occur in the sorted array ``values``
    (one ``searchsorted``)."""
    if not len(values):
        return _np.zeros(_np.shape(keys), dtype=bool)
    at = _np.minimum(_np.searchsorted(values, keys), len(values) - 1)
    return values[at] == keys


class TripleIndex:
    """Columnar sorted-run permutation indexes.

    Per permutation (SPO, POS, OSP) the index holds a **main run** (the
    bulk of the data, immutable between folds), a **level-0 run** (L0)
    of pending adds, and a sorted array of the main run's **dead
    positions** (tombstones).  The live set is ``main − dead ∪ L0``, and
    an L0 row is never also a main row: re-adding a dead main row clears
    its tombstone, and removing an L0 row deletes it.

    A write is sorted, deduplicated against both runs and merged into L0
    (O(|L0|) per write, never O(run)).  A write that, with the pending
    rows, reaches a quarter of the main run folds everything into a fresh
    main run instead (one ``lexsort`` per permutation), so L0 stays below
    a quarter of the run and total merge work is amortized-linear;
    tombstones fold once pending rows reach
    ``max(flush_threshold, run_rows // 4)``.

    Every read serves, per key, the main run's live rows and then L0's:
    the order the batched engine's probes (:meth:`levels`) and the scan
    API below share.
    """

    __slots__ = ("_runs", "_l0", "_dead", "_size",
                 "_p_counts", "_p_subjects", "_p_objects", "_flush_threshold")

    def __init__(self, flush_threshold: int = DEFAULT_FLUSH_THRESHOLD) -> None:
        self._runs: list[Run] = [EMPTY_RUN, EMPTY_RUN, EMPTY_RUN]
        self._l0: list[Run] = [EMPTY_LEVEL, EMPTY_LEVEL, EMPTY_LEVEL]
        self._dead = [_NO_POSITIONS, _NO_POSITIONS, _NO_POSITIONS]
        self._size = 0
        # Predicate catalog (small: one entry per distinct predicate).
        self._p_counts: dict[int, int] = {}
        self._p_subjects: dict[int, int] = {}
        self._p_objects: dict[int, int] = {}
        self._flush_threshold = max(1, flush_threshold)

    def __len__(self) -> int:
        return self._size

    # -- internals ----------------------------------------------------------

    def _is_dead(self, which: int, at: int) -> bool:
        dead = self._dead[which]
        if not len(dead):
            return False
        i = bisect_left(dead, at)
        return i < len(dead) and dead[i] == at

    def _tombstones_between(self, which: int, lo: int, hi: int) -> int:
        dead = self._dead[which]
        return bisect_left(dead, hi) - bisect_left(dead, lo) if len(dead) else 0

    def _count1(self, which: int, x: int) -> int:
        """Live rows of permutation ``which`` whose first column is ``x``."""
        lo, hi = self._runs[which].range1(x)
        n = hi - lo - self._tombstones_between(which, lo, hi)
        l0 = self._l0[which]
        if l0.n:
            lo, hi = l0.range1(x)
            n += hi - lo
        return n

    def _count2(self, which: int, x: int, y: int) -> int:
        """Live rows of permutation ``which`` starting with ``(x, y)``."""
        lo, hi = self._runs[which].range2(x, y)
        n = hi - lo - self._tombstones_between(which, lo, hi)
        l0 = self._l0[which]
        if l0.n:
            lo, hi = l0.range2(x, y)
            n += hi - lo
        return n

    def _tombstones_within(self, which: int, lo, hi):
        """Tombstones of permutation ``which`` inside each main-run row
        range ``[lo, hi)`` (int64 arrays)."""
        dead = self._dead[which]
        if not len(dead):
            return 0
        return _np.searchsorted(dead, hi) - _np.searchsorted(dead, lo)

    def _pair_probe(self, which: int, x, y):
        """For every pair of two int64 arrays, in permutation ``which``:
        ``(live rows, main-run ranges, L0 ranges)``, the ranges as
        :meth:`Run.pair_ranges` gives them."""
        lo, hi = self._runs[which].pair_ranges(x, y)
        live = hi - lo - self._tombstones_within(which, lo, hi)
        l0_lo, l0_hi = self._l0[which].pair_ranges(x, y)
        return live + (l0_hi - l0_lo), (lo, hi), (l0_lo, l0_hi)

    def _stat_remove(self, s: int, p: int, o: int) -> None:
        """Update catalog after the triple is gone from the live set."""
        self._size -= 1
        _count_down(self._p_counts, p)
        if not self._count2(0, s, p):
            _count_down(self._p_subjects, p)
        if not self._count2(1, p, o):
            _count_down(self._p_objects, p)

    def _revive(self, cols) -> None:
        """Clear the tombstones of the dead main rows ``cols`` (s, p, o)."""
        self._dead = [
            _np.setdiff1d(dead, run.find_rows(*(cols[i] for i in perm)),
                          assume_unique=True)
            for run, dead, perm in zip(self._runs, self._dead, _PERMS)]

    def _into_l0(self, row) -> None:
        """Merge one row ``(s, p, o)`` absent from the live set into L0."""
        cols = _columns(row)
        self._l0 = [run.with_rows(*(cols[i] for i in perm),
                                  _np.array([run.rank(*(row[i] for i in perm))]))
                    for run, perm in zip(self._l0, _PERMS)]

    def _folds_with(self, n: int) -> bool:
        """A write of ``n`` rows folds L0 and the tombstones into the
        main run: together they reach a quarter of it."""
        return n + self.pending_mutations >= self._runs[0].n >> 2

    def _maybe_flush(self) -> None:
        pending = self.pending_mutations
        if pending >= self._flush_threshold and pending >= self._runs[0].n >> 2:
            self.flush()

    # -- mutation -----------------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        """Insert a triple; returns False when it was already present."""
        at = self._runs[0].find(s, p, o)
        if at >= 0:
            if not self._is_dead(0, at):
                return False
        elif self._l0[0].n and self._l0[0].find(s, p, o) >= 0:
            return False
        if at < 0 and self._folds_with(1):
            self._merge(_columns((s, p, o)))
            return True
        had_sp = self._count2(0, s, p) > 0
        had_po = self._count2(1, p, o) > 0
        if at >= 0:
            self._revive(_columns((s, p, o)))
        else:
            self._into_l0((s, p, o))
        self._size += 1
        _count_up(self._p_counts, p)
        if not had_sp:
            _count_up(self._p_subjects, p)
        if not had_po:
            _count_up(self._p_objects, p)
        return True

    def remove(self, s: int, p: int, o: int) -> bool:
        """Delete a triple; returns False when it was not present."""
        row = (s, p, o)
        if self._l0[0].n and self._l0[0].find(s, p, o) >= 0:
            self._l0 = [run.without_rows(run.find(*(row[i] for i in perm)))
                        for run, perm in zip(self._l0, _PERMS)]
        else:
            at = self._runs[0].find(s, p, o)
            if at < 0 or self._is_dead(0, at):
                return False
            dead = []
            for run, positions, perm in zip(self._runs, self._dead, _PERMS):
                at = run.find(*(row[i] for i in perm))
                dead.append(_np.insert(positions, bisect_left(positions, at), at))
            self._dead = dead
        self._stat_remove(s, p, o)
        self._maybe_flush()
        return True

    def add_batch(self, s, p, o) -> int:
        """Insert the rows of three id columns; returns how many were new.

        The rows are sorted and deduplicated once, checked against both
        runs, and merged into L0; a batch that folds (:meth:`_folds_with`)
        merges with the pending rows into fresh main runs in one step.
        The pair ranges each permutation's lookup finds in L0 also place
        the new rows there.
        """
        s, p, o = (_np.asarray(col, dtype=_np.int64) for col in (s, p, o))
        if not len(s):
            return 0
        before = self._size
        if self._folds_with(len(s)):
            self._merge((s, p, o))
            return self._size - before
        order = _np.lexsort((o, p, s))
        s, p, o = s[order], p[order], o[order]
        distinct = group_starts(s, p, o)
        s, p, o, first = s[distinct], p[distinct], o[distinct], order[distinct]
        sp_live, (lo, hi), spo_l0 = self._pair_probe(0, s, p)
        at = self._runs[0].find_in(lo, hi, o)
        dead = (at >= 0) & in_sorted(self._dead[0], at)
        new = (at < 0) & (self._l0[0].find_in(*spo_l0, o) < 0)
        fresh = _np.nonzero(dead | new)[0]
        if not len(fresh):
            return 0
        s, p, o, first, sp_live, dead, new = (
            col[fresh] for col in (s, p, o, first, sp_live, dead, new))
        spo_l0 = tuple(bound[fresh] for bound in spo_l0)
        pos = _np.lexsort((s, o, p))
        ps, po, pss = p[pos], o[pos], s[pos]
        po_live, _main, pos_l0 = self._pair_probe(1, ps, po)
        # The catalog: a predicate first met here is keyed in write order;
        # equal pairs are adjacent in SPO and POS order.
        counts, subjects, objects = self._p_counts, self._p_subjects, self._p_objects
        for pid in p[_np.argsort(first)].tolist():
            counts[pid] = counts.get(pid, 0) + 1
        for pid in p[(sp_live == 0) & group_starts(s, p)].tolist():
            subjects[pid] = subjects.get(pid, 0) + 1
        for pid in ps[(po_live == 0) & group_starts(ps, po)].tolist():
            objects[pid] = objects.get(pid, 0) + 1
        self._size += len(s)
        if dead.any():
            self._revive((s[dead], p[dead], o[dead]))
        if new.any():
            in_pos = new[pos]
            osp = _np.lexsort((p[new], s[new], o[new]))
            rows = ((s[new], p[new], o[new], (spo_l0[0][new], spo_l0[1][new])),
                    (ps[in_pos], po[in_pos], pss[in_pos],
                     (pos_l0[0][in_pos], pos_l0[1][in_pos])),
                    (o[new][osp], s[new][osp], p[new][osp], None))
            self._l0 = [run.with_rows(x, y, z, run.ranks(x, y, z, ranges))
                        for run, (x, y, z, ranges) in zip(self._l0, rows)]
        return self._size - before

    def flush(self) -> None:
        """Fold L0 and the tombstones into fresh main runs."""
        if self.pending_mutations:
            self._merge(_NO_ROWS)

    def _merge(self, batch) -> None:
        """Rebuild the main runs from the live rows plus the ``batch``
        columns (duplicates and dead rows among them are fine), then the
        catalog from the runs."""
        parts: tuple[list, list, list] = ([], [], [])
        run = self._runs[0]
        if run.n:
            a, b, c, _starts = run.as_numpy()
            dead = self._dead[0]
            if len(dead):
                keep = _np.ones(run.n, dtype=bool)
                keep[dead] = False
                a, b, c = a[keep], b[keep], c[keep]
            for part, col in zip(parts, (a, b, c)):
                part.append(col)
        for part, col in zip(parts, self._l0[0].as_numpy()[:3]):
            part.append(col)
        for part, col in zip(parts, batch):
            part.append(col)
        self._runs = list(build_runs(*(_np.concatenate(part) for part in parts)))
        self._l0 = [EMPTY_LEVEL, EMPTY_LEVEL, EMPTY_LEVEL]
        self._dead = [_NO_POSITIONS, _NO_POSITIONS, _NO_POSITIONS]
        self._size = self._runs[0].n
        self._recount(batch[1])

    def _recount(self, new_p) -> None:
        """The predicate catalog, computed from the runs.

        Its rows keep the order a row-by-row load gives them (snapshots
        write them in it): the predicates already counted, then those first
        met in ``new_p``, by first occurrence.
        """
        order = list(self._p_counts)
        if len(new_p):
            known = self._p_counts
            pids, first = _np.unique(new_p, return_index=True)
            order.extend(pid for _first, pid in sorted(zip(first.tolist(), pids.tolist()))
                         if pid not in known)
        spo, pos, _osp = self._runs
        if not spo.n:
            self._p_counts, self._p_subjects, self._p_objects = {}, {}, {}
            return
        s, p, _o, _starts = spo.as_numpy()
        pp, po, _ps, starts = pos.as_numpy()
        ids = _np.array(order, dtype=_np.int64)
        width = len(starts) - 1
        triples = _np.diff(starts)[ids].tolist()
        subjects = _np.bincount(p[group_starts(s, p)], minlength=width)[ids].tolist()
        objects = _np.bincount(pp[group_starts(pp, po)], minlength=width)[ids].tolist()
        self._p_counts = dict(zip(order, triples))
        self._p_subjects = dict(zip(order, subjects))
        self._p_objects = dict(zip(order, objects))

    # -- loading ------------------------------------------------------------

    @classmethod
    def from_runs(
        cls,
        runs: Sequence[Run],
        size: int,
        predicate_stats: Iterable[tuple[int, int, int, int]],
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
    ) -> "TripleIndex":
        """Wrap pre-built (possibly mmap-backed) runs — the snapshot path.

        ``predicate_stats`` rows are ``(pid, triples, distinct_subjects,
        distinct_objects)``; everything else about the catalog derives
        from the run offsets, so no O(data) work happens here.
        """
        index = cls(flush_threshold=flush_threshold)
        index._runs = list(runs)
        index._size = size
        for pid, triples, subjects, objects in predicate_stats:
            index._p_counts[pid] = triples
            index._p_subjects[pid] = subjects
            index._p_objects[pid] = objects
        return index

    @property
    def runs(self) -> tuple[Run, Run, Run]:
        """The (SPO, POS, OSP) main runs — read-only; ``flush()`` first
        for a complete view."""
        return tuple(self._runs)

    @property
    def pending_mutations(self) -> int:
        """Rows not yet folded into the main runs (L0 + tombstones).

        On a durable graph this is what a recovery replay would redo
        since the last checkpoint."""
        return self._l0[0].n + len(self._dead[0])

    def levels(self, which: int) -> list:
        """The non-empty runs of permutation ``which`` (0=SPO, 1=POS,
        2=OSP) in read order — the main run, then L0 — each with its
        sorted dead positions (None when it has none).

        The batched engine slices and probes each one with array
        operations and drops dead rows with :func:`in_sorted`.
        """
        out = []
        run = self._runs[which]
        if run.n:
            dead = self._dead[which]
            out.append((run, dead if len(dead) else None))
        if self._l0[which].n:
            out.append((self._l0[which], None))
        return out

    def predicate_stat_rows(self) -> Iterator[tuple[int, int, int, int]]:
        """Catalog rows for persistence, matching :meth:`from_runs`."""
        for pid, triples in self._p_counts.items():
            yield (pid, triples,
                   self._p_subjects.get(pid, 0), self._p_objects.get(pid, 0))

    # -- point lookups ------------------------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        at = self._runs[0].find(s, p, o)
        if at >= 0:
            return not self._is_dead(0, at)
        return bool(self._l0[0].n) and self._l0[0].find(s, p, o) >= 0

    # -- scan API -----------------------------------------------------------

    def _thirds(self, which: int, x: int, y: int) -> Sequence[int]:
        """Third-column values of the live rows of permutation ``which``
        starting with ``(x, y)``: a zero-copy slice of the main run when
        neither a tombstone nor L0 touches the range, else a list."""
        run = self._runs[which]
        lo, hi = run.range2(x, y)
        out = run.c[lo:hi]
        dead = self._dead[which]
        if lo < hi and len(dead):
            dead = dead[bisect_left(dead, lo):bisect_left(dead, hi)]
            if len(dead):
                keep = _np.ones(hi - lo, dtype=bool)
                keep[dead - lo] = False
                out = run.as_numpy()[2][lo:hi][keep].tolist()
        l0 = self._l0[which]
        if l0.n:
            lo, hi = l0.range2(x, y)
            if lo < hi:
                out = [*out, *l0.c[lo:hi]]
        return out

    def scan_objects(self, s: int, p: int) -> Sequence[int]:
        """Objects of all ``(s, p, *)`` triples."""
        return self._thirds(0, s, p)

    def scan_subjects(self, p: int, o: int) -> Sequence[int]:
        """Subjects of all ``(*, p, o)`` triples."""
        return self._thirds(1, p, o)

    def scan_predicates(self, s: int, o: int) -> Sequence[int]:
        """Predicates of all ``(s, *, o)`` triples."""
        return self._thirds(2, o, s)

    def _seconds_thirds(self, which: int, x: int):
        """The second and third columns of the live rows of permutation
        ``which`` whose first column is ``x``, as two int64 arrays."""
        parts = []
        for run, dead in self.levels(which):
            lo, hi = run.range1(x)
            if lo < hi:
                _a, b, c, _starts = run.as_numpy()
                b, c = b[lo:hi], c[lo:hi]
                if dead is not None:
                    live = ~in_sorted(dead, _np.arange(lo, hi))
                    b, c = b[live], c[live]
                parts.append((b, c))
        if len(parts) == 1:
            return parts[0]
        return tuple(_np.concatenate(cols) for cols in zip(*parts)) if parts \
            else _NO_ROWS[:2]

    def predicate_pairs(self, p: int) -> Iterator[tuple[int, int]]:
        """All ``(subject, object)`` pairs of one predicate: a bare
        ``zip`` over two unboxed column slices, so no generator frame
        sits between the store and the IndexScan consuming it."""
        objects, subjects = self._seconds_thirds(1, p)
        return zip(subjects.tolist(), objects.tolist())

    # -- pattern matching ---------------------------------------------------

    def match(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[tuple[int, int, int]]:
        """Iterate id-triples matching the pattern (``None`` = wildcard).

        Chooses the permutation whose sort prefix covers the bound
        positions.
        """
        if s is not None:
            if p is not None:
                if o is not None:
                    if self.contains(s, p, o):
                        yield (s, p, o)
                    return
                for oid in self.scan_objects(s, p):
                    yield (s, p, oid)
                return
            if o is not None:
                for pid in self.scan_predicates(s, o):
                    yield (s, pid, o)
                return
            preds, objs = self._seconds_thirds(0, s)
            for pid, oid in zip(preds.tolist(), objs.tolist()):
                yield (s, pid, oid)
            return
        if p is not None:
            if o is not None:
                for sid in self.scan_subjects(p, o):
                    yield (sid, p, o)
                return
            for sid, oid in self.predicate_pairs(p):
                yield (sid, p, oid)
            return
        if o is not None:
            subs, preds = self._seconds_thirds(2, o)
            for sid, pid in zip(subs.tolist(), preds.tolist()):
                yield (sid, pid, o)
            return
        for run, dead in self.levels(0):
            if dead is None:
                yield from run.rows()
            else:
                skip = set(dead.tolist())
                for at, row in enumerate(run.rows()):
                    if at not in skip:
                        yield row

    def count(self, s: int | None, p: int | None, o: int | None) -> int:
        """Exact cardinality of a pattern, without materializing matches.

        Every shape is a few run ranges (O(1) offsets or bounded bisects)
        less the tombstones inside them, or a catalog read.
        """
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        if s is not None and p is not None:
            return self._count2(0, s, p)
        if p is not None and o is not None:
            return self._count2(1, p, o)
        if s is not None and o is not None:
            return self._count2(2, o, s)
        if s is not None:
            return self._count1(0, s)
        if p is not None:
            return self._p_counts.get(p, 0)
        if o is not None:
            return self._count1(2, o)
        return self._size

    # -- catalog iteration --------------------------------------------------

    def subjects_for_predicate(self, p: int) -> Iterator[int]:
        return iter(dict.fromkeys(self._seconds_thirds(1, p)[1].tolist()))

    def objects_for_predicate(self, p: int) -> Iterator[int]:
        return iter(_np.unique(self._seconds_thirds(1, p)[0]).tolist())

    def predicates(self) -> Iterator[int]:
        # The catalog keys are exactly the predicates with a live triple.
        return iter(self._p_counts)

    def predicate_cardinality(self, p: int) -> int:
        return self._p_counts.get(p, 0)

    def predicate_stats(self, p: int) -> PredicateStats:
        """The catalog entry for one predicate (all-zero when absent)."""
        triples = self._p_counts.get(p, 0)
        if not triples:
            return _EMPTY_STATS
        return PredicateStats(
            triples=triples,
            distinct_subjects=self._p_subjects.get(p, 0),
            distinct_objects=self._p_objects.get(p, 0),
        )
