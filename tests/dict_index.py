"""The reference index of the storage equivalence suite.

:class:`DictTripleIndex` keeps nested hashes, ``dict[a][b] -> set[c]``
per permutation: O(1) point probes, every answer obvious by inspection.
``tests/test_store_equivalence.py`` checks the columnar
:class:`~repro.store.index.TripleIndex` against it; no graph is built
on it.
"""

from typing import Iterator, Sequence

from repro.store.index import PredicateStats

_EMPTY_STATS = PredicateStats(0, 0, 0)


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
