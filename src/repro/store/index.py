"""Low-level storage: term dictionary and triple permutation indexes.

The design follows the classic dictionary-encoded triple table used by RDF
stores (and surveyed in "A design space for RDF data representations",
VLDB J. 2022, which the paper cites): every term is mapped to a dense
integer id once, and triples are stored as id-rows in three permutations
(SPO, POS, OSP).  Any of the eight triple-pattern shapes then resolves
against the permutation that binds the most positions.

Every :class:`~repro.store.graph.Graph` stores its triples in a
:class:`TripleIndex`, the **columnar** layout.  Each permutation is one
sorted :class:`~repro.store.columnar.Run` of three contiguous int64
columns with a CSR offset array over the first key, plus an append-side
**delta buffer** in nested-dict shape and a tombstone set for removals
of run-resident triples.  Writes land in the delta; once delta +
tombstones outgrow a threshold proportional to the run, everything
merges into a fresh run (amortized O(n) total merge work over an
n-triple ingest).  Reads consult the run via O(1) offset lookups +
bounded binary searches and overlay the delta.  Runs can be mmap-backed
(see :mod:`repro.store.snapshot`), which makes bootstrap O(file open).

:class:`DictTripleIndex` — nested hashes, ``dict[a][b] -> set[c]`` per
permutation — implements the same API and is the reference index the
storage equivalence suite compares :class:`TripleIndex` against; no
graph is built on it.

The index doubles as the engine's **statistics catalog**: per-predicate
triple counts and distinct subject/object counts are maintained
incrementally on every add/remove, and every single-constant ``count``
shape stays cheap (O(1) dict/offset reads), so the join-order optimizer
never pays O(data) to cost a plan.

The execution layer consumes the scan API — ``scan_objects`` /
``scan_subjects`` / ``scan_predicates`` / ``predicate_pairs`` /
``contains`` — rather than raw permutation maps; those return zero-copy
memoryview slices of the run columns wherever no delta/tombstone overlay
is needed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as _np

from ..rdf.terms import Literal, Node
from .columnar import EMPTY_RUN, Run, merge_run

__all__ = [
    "MALFORMED",
    "NOT_NUMERIC",
    "NumericMemo",
    "numeric_of",
    "TermDictionary",
    "TripleIndex",
    "DictTripleIndex",
    "PredicateStats",
]

#: Flush the delta buffer into the sorted runs past this many buffered
#: mutations (or earlier, once it outgrows a quarter of the run).
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


def _index_add(index: dict[int, dict[int, set[int]]], a: int, b: int, c: int) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_remove(index: dict[int, dict[int, set[int]]], a: int, b: int, c: int) -> None:
    second = index[a]
    third = second[b]
    third.discard(c)
    if not third:
        del second[b]
        if not second:
            del index[a]


def _count_up(counts: dict, key) -> None:
    counts[key] = counts.get(key, 0) + 1


def _count_down(counts: dict, key) -> None:
    remaining = counts[key] - 1
    if remaining:
        counts[key] = remaining
    else:
        del counts[key]


class DictTripleIndex:
    """Nested-hash permutation indexes over dictionary-encoded triples.

    ``dict[a][b] -> set[c]`` per permutation.  O(1) point probes, but
    each triple costs several boxed container entries (~70
    bytes/triple/permutation) and scans chase hash buckets instead of
    streaming contiguous memory.  The reference implementation
    :class:`TripleIndex` is tested against.

    All methods speak integer ids; the owning
    :class:`~repro.store.graph.Graph` handles term encoding/decoding.
    Pattern positions use ``None`` as the wildcard.
    """

    __slots__ = ("_spo", "_pos", "_osp", "_size",
                 "_s_counts", "_p_counts", "_o_counts", "_p_subjects")

    def __init__(self) -> None:
        self._spo: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[int, dict[int, set[int]]] = {}
        self._osp: dict[int, dict[int, set[int]]] = {}
        self._size = 0
        # Statistics catalog: triples per subject / predicate / object, and
        # distinct subjects per predicate (distinct objects per predicate
        # fall out of len(self._pos[p]) for free).
        self._s_counts: dict[int, int] = {}
        self._p_counts: dict[int, int] = {}
        self._o_counts: dict[int, int] = {}
        self._p_subjects: dict[int, int] = {}

    def __len__(self) -> int:
        return self._size

    def add(self, s: int, p: int, o: int) -> bool:
        """Insert a triple; returns False when it was already present."""
        objects = self._spo.get(s, {}).get(p)
        if objects is not None and o in objects:
            return False
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._size += 1
        _count_up(self._s_counts, s)
        _count_up(self._p_counts, p)
        _count_up(self._o_counts, o)
        if objects is None:
            # First (s, p, *) triple: the predicate gains a distinct subject.
            _count_up(self._p_subjects, p)
        return True

    def remove(self, s: int, p: int, o: int) -> bool:
        """Delete a triple; returns False when it was not present."""
        objects = self._spo.get(s, {}).get(p)
        if objects is None or o not in objects:
            return False
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        self._size -= 1
        _count_down(self._s_counts, s)
        _count_down(self._p_counts, p)
        _count_down(self._o_counts, o)
        if p not in self._spo.get(s, {}):
            # Last (s, p, *) triple went away with it.
            _count_down(self._p_subjects, p)
        return True

    def contains(self, s: int, p: int, o: int) -> bool:
        objects = self._spo.get(s, {}).get(p)
        return objects is not None and o in objects

    # -- scan API -----------------------------------------------------------

    def scan_objects(self, s: int, p: int) -> Sequence[int]:
        """Objects of all ``(s, p, *)`` triples (any iterable container)."""
        by_p = self._spo.get(s)
        if by_p is None:
            return ()
        return by_p.get(p, ())

    def scan_subjects(self, p: int, o: int) -> Sequence[int]:
        """Subjects of all ``(*, p, o)`` triples."""
        by_o = self._pos.get(p)
        if by_o is None:
            return ()
        return by_o.get(o, ())

    def scan_predicates(self, s: int, o: int) -> Sequence[int]:
        """Predicates of all ``(s, *, o)`` triples."""
        by_s = self._osp.get(o)
        if by_s is None:
            return ()
        return by_s.get(s, ())

    def predicate_pairs(self, p: int) -> Iterator[tuple[int, int]]:
        """All ``(subject, object)`` pairs of one predicate."""
        for o, subjects in self._pos.get(p, {}).items():
            for s in subjects:
                yield (s, o)

    def match(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[tuple[int, int, int]]:
        """Iterate id-triples matching the pattern (``None`` = wildcard).

        Chooses the permutation index that binds the most positions, so the
        iteration touches only candidate triples.
        """
        if s is not None:
            by_p = self._spo.get(s)
            if by_p is None:
                return
            if p is not None:
                objects = by_p.get(p)
                if objects is None:
                    return
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                    return
                for obj in objects:
                    yield (s, p, obj)
                return
            if o is not None:
                # S?O: use OSP to reach predicates directly.
                preds = self._osp.get(o, {}).get(s)
                if preds is None:
                    return
                for pred in preds:
                    yield (s, pred, o)
                return
            for pred, objects in by_p.items():
                for obj in objects:
                    yield (s, pred, obj)
            return
        if p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return
            if o is not None:
                subjects = by_o.get(o)
                if subjects is None:
                    return
                for subj in subjects:
                    yield (subj, p, o)
                return
            for obj, subjects in by_o.items():
                for subj in subjects:
                    yield (subj, p, obj)
            return
        if o is not None:
            by_s = self._osp.get(o)
            if by_s is None:
                return
            for subj, preds in by_s.items():
                for pred in preds:
                    yield (subj, pred, o)
            return
        for subj, by_p in self._spo.items():
            for pred, objects in by_p.items():
                for obj in objects:
                    yield (subj, pred, obj)

    def count(self, s: int | None, p: int | None, o: int | None) -> int:
        """Exact cardinality of a pattern, without materializing matches.

        Every shape is O(1): two-constant shapes read an inner set's size,
        single-constant shapes read the incrementally maintained counters —
        the join-order optimizer relies on this being cheap.
        """
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return self._s_counts.get(s, 0)
        if p is not None:
            return self._p_counts.get(p, 0)
        if o is not None:
            return self._o_counts.get(o, 0)
        return self._size

    def subjects_for_predicate(self, p: int) -> Iterator[int]:
        seen: set[int] = set()
        for subjects in self._pos.get(p, {}).values():
            for subj in subjects:
                if subj not in seen:
                    seen.add(subj)
                    yield subj

    def objects_for_predicate(self, p: int) -> Iterator[int]:
        return iter(self._pos.get(p, {}))

    def predicates(self) -> Iterator[int]:
        return iter(self._pos)

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
            distinct_objects=len(self._pos.get(p, ())),
        )


#: Column permutations of an SPO tuple for the three runs.
_PERMS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class TripleIndex:
    """Columnar sorted-run permutation indexes.

    Structure per permutation: one main :class:`Run` (sorted columns +
    first-key offsets) holding the bulk of the data.  On top of all three
    runs sit a shared **delta buffer** (the nested-dict shape, so recent
    writes keep O(1) probes) and a **tombstone set** for triples deleted
    out of the runs.  The invariant: a live triple is in exactly one of
    ``runs − tombstones`` or the delta; a tombstoned triple is always
    run-resident.

    ``flush()`` merges delta and tombstones into fresh runs; it triggers
    automatically once ``delta + tombstones`` exceeds
    ``max(flush_threshold, run_rows // 4)``, which keeps total merge work
    amortized-linear over an ingest.  Bulk writers end with
    :meth:`settle`, which drops the ``flush_threshold`` floor and merges
    the tail of a write that flushed automatically.
    """

    __slots__ = (
        "_runs", "_dspo", "_dpos", "_dosp", "_delta_size",
        "_dead", "_dead_sp", "_dead_po", "_dead_os",
        "_dead_s", "_dead_p", "_dead_o",
        "_size", "_p_counts", "_p_subjects", "_p_objects",
        "_flush_threshold", "_auto_flushed",
    )

    def __init__(self, flush_threshold: int = DEFAULT_FLUSH_THRESHOLD) -> None:
        self._runs: list[Run] = [EMPTY_RUN, EMPTY_RUN, EMPTY_RUN]
        self._dspo: dict[int, dict[int, set[int]]] = {}
        self._dpos: dict[int, dict[int, set[int]]] = {}
        self._dosp: dict[int, dict[int, set[int]]] = {}
        self._delta_size = 0
        self._dead: set[tuple[int, int, int]] = set()
        # Tombstone adjustment counters, keyed like the count() shapes the
        # run ranges answer, so counts stay exact without rescanning.
        self._dead_sp: dict[tuple[int, int], int] = {}
        self._dead_po: dict[tuple[int, int], int] = {}
        self._dead_os: dict[tuple[int, int], int] = {}
        self._dead_s: dict[int, int] = {}
        self._dead_p: dict[int, int] = {}
        self._dead_o: dict[int, int] = {}
        self._size = 0
        # Predicate catalog (small: one entry per distinct predicate).
        self._p_counts: dict[int, int] = {}
        self._p_subjects: dict[int, int] = {}
        self._p_objects: dict[int, int] = {}
        self._flush_threshold = max(1, flush_threshold)
        #: An automatic flush ran since the last :meth:`settle`.
        self._auto_flushed = False

    def __len__(self) -> int:
        return self._size

    # -- internals ----------------------------------------------------------

    def _pair_sp(self, s: int, p: int) -> int:
        """Live count of ``(s, p, *)`` across run, delta, and tombstones."""
        by_p = self._dspo.get(s)
        objs = by_p.get(p) if by_p else None
        n = len(objs) if objs else 0
        lo, hi = self._runs[0].range2(s, p)
        if hi > lo:
            n += hi - lo
            if self._dead_sp:
                n -= self._dead_sp.get((s, p), 0)
        return n

    def _pair_po(self, p: int, o: int) -> int:
        by_o = self._dpos.get(p)
        subs = by_o.get(o) if by_o else None
        n = len(subs) if subs else 0
        lo, hi = self._runs[1].range2(p, o)
        if hi > lo:
            n += hi - lo
            if self._dead_po:
                n -= self._dead_po.get((p, o), 0)
        return n

    def _pair_os(self, o: int, s: int) -> int:
        by_s = self._dosp.get(o)
        preds = by_s.get(s) if by_s else None
        n = len(preds) if preds else 0
        lo, hi = self._runs[2].range2(o, s)
        if hi > lo:
            n += hi - lo
            if self._dead_os:
                n -= self._dead_os.get((o, s), 0)
        return n

    def _had_sp(self, s: int, p: int) -> bool:
        """Cheap ``_pair_sp(s, p) > 0`` for the add() hot path."""
        by_p = self._dspo.get(s)
        if by_p and by_p.get(p):
            return True
        lo, hi = self._runs[0].range2(s, p)
        if lo == hi:
            return False
        if self._dead_sp:
            return hi - lo > self._dead_sp.get((s, p), 0)
        return True

    def _had_po(self, p: int, o: int) -> bool:
        """Cheap ``_pair_po(p, o) > 0`` for the add() hot path.

        Bulk ingest mostly sees either an object fresh to the whole store
        (unique measure literals — O(1) via the OSP offsets) or a
        (p, o) pair already buffered in the delta (repeated dimension
        members — O(1) dict hits), so the bounded bisect over the
        predicate's run range is the rare case.
        """
        by_o = self._dpos.get(p)
        if by_o and by_o.get(o):
            return True
        osp = self._runs[2]
        if (not osp.n or osp.range1(o) == (0, 0)) and o not in self._dosp:
            return False  # object unseen anywhere: no (p, o) triple exists
        lo, hi = self._runs[1].range2(p, o)
        if lo == hi:
            return False
        if self._dead_po:
            return hi - lo > self._dead_po.get((p, o), 0)
        return True

    def _stat_add(self, s: int, p: int, o: int, had_sp: bool, had_po: bool) -> None:
        self._size += 1
        _count_up(self._p_counts, p)
        if not had_sp:
            _count_up(self._p_subjects, p)
        if not had_po:
            _count_up(self._p_objects, p)

    def _stat_remove(self, s: int, p: int, o: int) -> None:
        """Update catalog after the triple is gone from the live set."""
        self._size -= 1
        _count_down(self._p_counts, p)
        if not self._pair_sp(s, p):
            _count_down(self._p_subjects, p)
        if not self._pair_po(p, o):
            _count_down(self._p_objects, p)

    def _maybe_flush(self) -> None:
        pending = self._delta_size + len(self._dead)
        if pending >= self._flush_threshold and pending >= self._runs[0].n >> 2:
            self.flush()
            self._auto_flushed = True

    def settle(self) -> None:
        """End of a bulk write: merge once pending mutations reach a quarter
        of the run, or whatever is pending after an automatic flush.

        The amortized half of the automatic rule without the
        ``flush_threshold`` floor, so a bulk-loaded graph of any size
        leaves its delta in sorted runs — where batched scans and probes
        need it (:meth:`pure_run`) — while a small write on a large run
        stays buffered.  A write that crossed the automatic threshold was
        large enough to pay one merge; without the second, its tail (a
        small remainder next to the run it just grew) would stay buffered
        and turn every batched scan into a per-row fallback.
        """
        pending = self._delta_size + len(self._dead)
        if pending and (self._auto_flushed or pending >= self._runs[0].n >> 2):
            self.flush()
        self._auto_flushed = False

    # -- mutation -----------------------------------------------------------

    def add(self, s: int, p: int, o: int) -> bool:
        """Insert a triple; returns False when it was already present."""
        key = (s, p, o)
        if self._dead and key in self._dead:
            # Resurrect a tombstoned run row instead of buffering a copy.
            had_sp = self._had_sp(s, p)
            had_po = self._had_po(p, o)
            self._dead.discard(key)
            _count_down(self._dead_sp, (s, p))
            _count_down(self._dead_po, (p, o))
            _count_down(self._dead_os, (o, s))
            _count_down(self._dead_s, s)
            _count_down(self._dead_p, p)
            _count_down(self._dead_o, o)
            self._stat_add(s, p, o, had_sp, had_po)
            return True
        by_p = self._dspo.get(s)
        objs = by_p.get(p) if by_p else None
        if objs is not None and o in objs:
            return False
        if self._runs[0].n and self._runs[0].find(s, p, o) >= 0:
            return False
        had_sp = self._had_sp(s, p)
        had_po = self._had_po(p, o)
        _index_add(self._dspo, s, p, o)
        _index_add(self._dpos, p, o, s)
        _index_add(self._dosp, o, s, p)
        self._delta_size += 1
        self._stat_add(s, p, o, had_sp, had_po)
        self._maybe_flush()
        return True

    def remove(self, s: int, p: int, o: int) -> bool:
        """Delete a triple; returns False when it was not present."""
        by_p = self._dspo.get(s)
        objs = by_p.get(p) if by_p else None
        if objs is not None and o in objs:
            _index_remove(self._dspo, s, p, o)
            _index_remove(self._dpos, p, o, s)
            _index_remove(self._dosp, o, s, p)
            self._delta_size -= 1
            self._stat_remove(s, p, o)
            return True
        key = (s, p, o)
        if self._dead and key in self._dead:
            return False
        if not self._runs[0].n or self._runs[0].find(s, p, o) < 0:
            return False
        self._dead.add(key)
        _count_up(self._dead_sp, (s, p))
        _count_up(self._dead_po, (p, o))
        _count_up(self._dead_os, (o, s))
        _count_up(self._dead_s, s)
        _count_up(self._dead_p, p)
        _count_up(self._dead_o, o)
        self._stat_remove(s, p, o)
        self._maybe_flush()
        return True

    def flush(self) -> None:
        """Merge the delta buffer and tombstones into fresh sorted runs."""
        if not self._delta_size and not self._dead:
            return
        # Flat per-position lists: no tuple per triple.
        columns: tuple[list, list, list] = ([], [], [])
        for s, by_p in self._dspo.items():
            for p, objs in by_p.items():
                columns[0].extend([s] * len(objs))
                columns[1].extend([p] * len(objs))
                columns[2].extend(objs)
        delta = [_np.array(col, dtype=_np.int64) for col in columns]
        dead = self._dead
        new_runs = []
        for (i, j, k), run in zip(_PERMS, self._runs):
            added = (delta[i], delta[j], delta[k])
            dead_rows = [run.find(t[i], t[j], t[k]) for t in dead]
            new_runs.append(merge_run(run, added, dead_rows))
        self._runs = new_runs
        self._dspo = {}
        self._dpos = {}
        self._dosp = {}
        self._delta_size = 0
        self._dead = set()
        self._dead_sp = {}
        self._dead_po = {}
        self._dead_os = {}
        self._dead_s = {}
        self._dead_p = {}
        self._dead_o = {}

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
        """The (SPO, POS, OSP) runs — read-only; ``flush()`` first for
        a complete view."""
        return tuple(self._runs)

    @property
    def delta_size(self) -> int:
        """Buffered (unmerged) insertions."""
        return self._delta_size

    @property
    def tombstones(self) -> int:
        """Buffered (unmerged) run deletions."""
        return len(self._dead)

    @property
    def pending_mutations(self) -> int:
        """Mutations not yet merged into sorted runs (delta + tombstones).

        This is the in-memory state a crash would lose on a non-durable
        graph — the durability layer reports it so operators can see how
        much a recovery replay would have to redo since the last
        checkpoint."""
        return self._delta_size + len(self._dead)

    def pure_run(self, which: int):
        """The sorted run for permutation ``which`` (0=SPO, 1=POS, 2=OSP)
        when it is the *complete* truth — no buffered delta rows or
        tombstones overlaying it — else ``None``.

        The vectorized executor slices whole column ranges out of a run;
        that is only sound when nothing overlays it, so batch fast paths
        gate on this and fall back to the overlay-aware scan API
        otherwise.
        """
        if self._delta_size or self._dead:
            return None
        return self._runs[which]

    def predicate_stat_rows(self) -> Iterator[tuple[int, int, int, int]]:
        """Catalog rows for persistence, matching :meth:`from_runs`."""
        for pid, triples in self._p_counts.items():
            yield (pid, triples,
                   self._p_subjects.get(pid, 0), self._p_objects.get(pid, 0))

    # -- point lookups ------------------------------------------------------

    def contains(self, s: int, p: int, o: int) -> bool:
        by_p = self._dspo.get(s)
        if by_p:
            objs = by_p.get(p)
            if objs and o in objs:
                return True
        run = self._runs[0]
        if run.n and run.find(s, p, o) >= 0:
            return not self._dead or (s, p, o) not in self._dead
        return False

    # -- scan API -----------------------------------------------------------

    def scan_objects(self, s: int, p: int) -> Sequence[int]:
        """Objects of all ``(s, p, *)`` triples.

        When the answer lives entirely in the run this is a zero-copy
        memoryview slice of the object column; otherwise a small list
        merging run and delta (minus tombstones).
        """
        # Inlined Run.range2: this is the NestedProbe hot path, called
        # once per intermediate row, so the call/tuple overhead matters.
        run = self._runs[0]
        starts = run.starts
        if 0 <= s < len(starts) - 1:
            lo, hi = starts[s], starts[s + 1]
            if lo < hi:
                b = run.b
                lo = bisect_left(b, p, lo, hi)
                hi = bisect_right(b, p, lo, hi)
        else:
            lo = hi = 0
        by_p = self._dspo.get(s)
        extra = by_p.get(p) if by_p else None
        if lo == hi:
            return extra if extra is not None else ()
        if not self._dead_sp or (s, p) not in self._dead_sp:
            seg = run.c[lo:hi]
            if extra is None:
                return seg
            out = list(seg)
            out.extend(extra)
            return out
        dead = self._dead
        out = [x for x in run.c[lo:hi] if (s, p, x) not in dead]
        if extra:
            out.extend(extra)
        return out

    def scan_subjects(self, p: int, o: int) -> Sequence[int]:
        """Subjects of all ``(*, p, o)`` triples."""
        run = self._runs[1]
        starts = run.starts
        if 0 <= p < len(starts) - 1:
            lo, hi = starts[p], starts[p + 1]
            if lo < hi:
                b = run.b
                lo = bisect_left(b, o, lo, hi)
                hi = bisect_right(b, o, lo, hi)
        else:
            lo = hi = 0
        by_o = self._dpos.get(p)
        extra = by_o.get(o) if by_o else None
        if lo == hi:
            return extra if extra is not None else ()
        if not self._dead_po or (p, o) not in self._dead_po:
            seg = run.c[lo:hi]
            if extra is None:
                return seg
            out = list(seg)
            out.extend(extra)
            return out
        dead = self._dead
        out = [x for x in run.c[lo:hi] if (x, p, o) not in dead]
        if extra:
            out.extend(extra)
        return out

    def scan_predicates(self, s: int, o: int) -> Sequence[int]:
        """Predicates of all ``(s, *, o)`` triples."""
        run = self._runs[2]
        starts = run.starts
        if 0 <= o < len(starts) - 1:
            lo, hi = starts[o], starts[o + 1]
            if lo < hi:
                b = run.b
                lo = bisect_left(b, s, lo, hi)
                hi = bisect_right(b, s, lo, hi)
        else:
            lo = hi = 0
        by_s = self._dosp.get(o)
        extra = by_s.get(s) if by_s else None
        if lo == hi:
            return extra if extra is not None else ()
        if not self._dead_os or (o, s) not in self._dead_os:
            seg = run.c[lo:hi]
            if extra is None:
                return seg
            out = list(seg)
            out.extend(extra)
            return out
        dead = self._dead
        out = [x for x in run.c[lo:hi] if (s, x, o) not in dead]
        if extra:
            out.extend(extra)
        return out

    def predicate_pairs(self, p: int) -> Iterator[tuple[int, int]]:
        """All ``(subject, object)`` pairs of one predicate.

        On the pure-run path (no delta, no tombstones for ``p`` — the
        steady state) this is a bare ``zip`` over the two column slices,
        unboxed once via ``tolist()``: no generator frame sits between
        the store and the consumer, which is what lets the operator
        layer's IndexScan stream millions of rows per second.
        """
        run = self._runs[1]
        lo, hi = run.range1(p) if run.n else (0, 0)
        clean = lo < hi and (not self._dead_p or p not in self._dead_p)
        by_o = self._dpos.get(p)
        if clean and not by_o:
            return zip(run.c[lo:hi].tolist(), run.b[lo:hi].tolist())
        return self._predicate_pairs_overlay(run, p, lo, hi, by_o)

    def _predicate_pairs_overlay(
        self, run: Run, p: int, lo: int, hi: int, by_o
    ) -> Iterator[tuple[int, int]]:
        """The delta/tombstone-merging slow path of :meth:`predicate_pairs`."""
        if lo < hi:
            if not self._dead_p or p not in self._dead_p:
                yield from zip(run.c[lo:hi].tolist(), run.b[lo:hi].tolist())
            else:
                dead = self._dead
                for o, s in zip(run.b[lo:hi], run.c[lo:hi]):
                    if (s, p, o) not in dead:
                        yield (s, o)
        if by_o:
            for o, subjects in by_o.items():
                for s in subjects:
                    yield (s, o)

    # -- pattern matching ---------------------------------------------------

    def match(
        self, s: int | None, p: int | None, o: int | None
    ) -> Iterator[tuple[int, int, int]]:
        """Iterate id-triples matching the pattern (``None`` = wildcard).

        Chooses the permutation whose sort prefix covers the bound
        positions, merging run ranges with the delta overlay.
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
            yield from self._scan_first(0, s)
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
            yield from self._scan_first(2, o)
            return
        run = self._runs[0]
        if run.n:
            dead = self._dead
            if dead:
                for row in run.rows():
                    if row not in dead:
                        yield row
            else:
                yield from run.rows()
        for sid, by_p in self._dspo.items():
            for pid, objs in by_p.items():
                for oid in objs:
                    yield (sid, pid, oid)

    def _scan_first(self, which: int, key: int) -> Iterator[tuple[int, int, int]]:
        """Triples whose permutation-``which`` first column equals ``key``."""
        run = self._runs[which]
        lo, hi = run.range1(key) if run.n else (0, 0)
        if which == 0:
            if lo < hi:
                dead = self._dead
                check = bool(self._dead_s) and key in self._dead_s
                for pid, oid in zip(run.b[lo:hi], run.c[lo:hi]):
                    if not check or (key, pid, oid) not in dead:
                        yield (key, pid, oid)
            by_p = self._dspo.get(key)
            if by_p:
                for pid, objs in by_p.items():
                    for oid in objs:
                        yield (key, pid, oid)
        else:  # OSP: key is the object, b=subject, c=predicate
            if lo < hi:
                dead = self._dead
                check = bool(self._dead_o) and key in self._dead_o
                for sid, pid in zip(run.b[lo:hi], run.c[lo:hi]):
                    if not check or (sid, pid, key) not in dead:
                        yield (sid, pid, key)
            by_s = self._dosp.get(key)
            if by_s:
                for sid, preds in by_s.items():
                    for pid in preds:
                        yield (sid, pid, key)

    def count(self, s: int | None, p: int | None, o: int | None) -> int:
        """Exact cardinality of a pattern, without materializing matches.

        Two-constant shapes are a run range (O(1) offset + two bounded
        bisects) plus delta/tombstone adjustments; single-constant shapes
        read the offset array or the predicate catalog.
        """
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        if s is not None and p is not None:
            return self._pair_sp(s, p)
        if p is not None and o is not None:
            return self._pair_po(p, o)
        if s is not None and o is not None:
            return self._pair_os(o, s)
        if s is not None:
            lo, hi = self._runs[0].range1(s)
            n = hi - lo - (self._dead_s.get(s, 0) if self._dead_s else 0)
            by_p = self._dspo.get(s)
            if by_p:
                n += sum(len(objs) for objs in by_p.values())
            return n
        if p is not None:
            return self._p_counts.get(p, 0)
        if o is not None:
            lo, hi = self._runs[2].range1(o)
            n = hi - lo - (self._dead_o.get(o, 0) if self._dead_o else 0)
            by_s = self._dosp.get(o)
            if by_s:
                n += sum(len(preds) for preds in by_s.values())
            return n
        return self._size

    # -- catalog iteration --------------------------------------------------

    def subjects_for_predicate(self, p: int) -> Iterator[int]:
        seen: set[int] = set()
        for subj, _oid in self.predicate_pairs(p):
            if subj not in seen:
                seen.add(subj)
                yield subj

    def objects_for_predicate(self, p: int) -> Iterator[int]:
        run = self._runs[1]
        lo, hi = run.range1(p) if run.n else (0, 0)
        by_o = self._dpos.get(p)
        if lo < hi and by_o is None and (not self._dead_p or p not in self._dead_p):
            # Pure run range: the object column is sorted, so distinct
            # values fall out of boundary changes with no dedup memory.
            col = run.b
            prev = None
            for i in range(lo, hi):
                val = col[i]
                if val != prev:
                    prev = val
                    yield val
            return
        seen: set[int] = set()
        if lo < hi:
            dead = self._dead
            check = bool(self._dead_p) and p in self._dead_p
            for oid, sid in zip(run.b[lo:hi], run.c[lo:hi]):
                if oid not in seen and (not check or (sid, p, oid) not in dead):
                    seen.add(oid)
                    yield oid
        if by_o:
            for oid in by_o:
                if oid not in seen:
                    yield oid

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
