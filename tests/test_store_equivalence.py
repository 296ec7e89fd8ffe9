"""Property suite: the columnar index is observationally a set of triples.

The columnar engine (main runs, a level-0 run of pending writes, sorted
tombstone positions), the nested-dict reference index
(``tests/dict_index.py``) and a snapshot round-trip of the columnar
graph must be indistinguishable through the index façade: every
triple-pattern shape, ``count``, the scan API, and the
``PredicateStats`` catalog agree — between writes, not only after the
last one.  A history is a bulk load followed by interleaved single adds,
bulk adds, removes that land in level 0, in the main run (tombstones) or
nowhere, re-adds of tombstoned rows, and folds of level 0 into the main
run (a tiny ``flush_threshold``, bulk writes large enough to fold).
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import Literal
from repro.store import Graph, TripleIndex
from tests.dict_index import DictTripleIndex

small_ids = st.integers(min_value=0, max_value=6)
id_triples = st.tuples(small_ids, small_ids, small_ids)
writes = st.one_of(
    st.tuples(st.just("add"), id_triples),
    st.tuples(st.just("remove"), id_triples),
    st.tuples(st.just("readd"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("batch"), st.lists(id_triples, max_size=12)),
)
#: A bulk load (a main run for level 0 to sit on), then the writes.
histories = st.tuples(st.lists(id_triples, max_size=60),
                      st.lists(writes, max_size=40))
flush_thresholds = st.integers(min_value=1, max_value=8)

PATTERN_SHAPES = (
    (None, None, None),
    (0, None, None),
    (None, 0, None),
    (None, None, 0),
    (0, 0, None),
    (0, None, 0),
    (None, 0, 0),
    (0, 0, 0),
)


def add_batch(index, rows) -> int:
    return index.add_batch(*([row[i] for row in rows] for i in range(3)))


def build_pair(history, flush_threshold, check=None):
    """Apply a history to a dict index and a columnar index in lockstep,
    calling ``check(dict_index, columnar)`` after every write."""
    load, writes = history
    dict_index = DictTripleIndex()
    columnar = TripleIndex(flush_threshold=flush_threshold)
    assert add_batch(columnar, load) == sum(dict_index.add(*row) for row in load)
    removed = []
    for op, arg in writes:
        if op == "add":
            assert dict_index.add(*arg) == columnar.add(*arg)
        elif op == "remove":
            gone = dict_index.remove(*arg)
            assert columnar.remove(*arg) == gone
            if gone:
                removed.append(arg)
        elif op == "readd":
            if removed:
                row = removed[arg % len(removed)]
                assert dict_index.add(*row) == columnar.add(*row)
        else:
            assert add_batch(columnar, arg) == sum(dict_index.add(*row) for row in arg)
        if check is not None:
            check(dict_index, columnar)
    return dict_index, columnar


def snapshot_copy(columnar: TripleIndex, tmp_path_factory) -> TripleIndex:
    """Round-trip a columnar index through the snapshot format."""
    graph = Graph()
    terms = graph.term_dictionary
    ids = [terms.encode(Literal(str(i))) for i in range(7)]
    for s, p, o in columnar.match(None, None, None):
        graph.triple_index.add(ids[s], ids[p], ids[o])  # leaves a level 0
    path = str(tmp_path_factory.mktemp("equiv") / "g.snap")
    graph.save_snapshot(path)
    loaded = Graph.load_snapshot(path)
    # Translate loaded term ids back to the 0..6 id space.
    remap = {}
    loaded_terms = loaded.term_dictionary
    for i in range(7):
        tid = loaded_terms.lookup(Literal(str(i)))
        if tid is not None:
            remap[tid] = i
    return loaded.triple_index, remap


def assert_equivalent(reference, candidate, tag):
    for probe in range(7):
        shapes = [
            tuple(probe if b == 0 else None for b in shape)
            for shape in PATTERN_SHAPES
        ]
        for shape in shapes:
            expected = set(reference.match(*shape))
            assert set(candidate.match(*shape)) == expected, (tag, shape)
            assert candidate.count(*shape) == len(expected), (tag, shape)
    assert len(candidate) == len(reference), tag
    assert set(candidate.predicates()) == set(reference.predicates()), tag
    for pid in reference.predicates():
        assert candidate.predicate_stats(pid) == reference.predicate_stats(pid), (
            tag,
            pid,
        )


def assert_scans_agree(dict_index, columnar):
    for x in range(7):
        for y in range(7):
            assert sorted(columnar.scan_objects(x, y)) == sorted(
                dict_index.scan_objects(x, y)
            )
            assert sorted(columnar.scan_subjects(x, y)) == sorted(
                dict_index.scan_subjects(x, y)
            )
            assert sorted(columnar.scan_predicates(x, y)) == sorted(
                dict_index.scan_predicates(x, y)
            )
            for z in range(7):
                assert columnar.contains(x, y, z) == dict_index.contains(x, y, z)
        assert sorted(columnar.predicate_pairs(x)) == sorted(
            dict_index.predicate_pairs(x)
        )
        assert sorted(columnar.subjects_for_predicate(x)) == sorted(
            dict_index.subjects_for_predicate(x)
        )
        assert sorted(columnar.objects_for_predicate(x)) == sorted(
            dict_index.objects_for_predicate(x)
        )


class TestLayoutEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(histories, flush_thresholds)
    def test_all_patterns_counts_and_stats_agree(self, history, flush_threshold):
        def check(dict_index, columnar):
            assert_equivalent(dict_index, columnar, "columnar")

        build_pair(history, flush_threshold, check)

    @settings(max_examples=60, deadline=None)
    @given(histories, flush_thresholds)
    def test_scan_api_agrees(self, history, flush_threshold):
        build_pair(history, flush_threshold, assert_scans_agree)

    @settings(max_examples=40, deadline=None)
    @given(histories, flush_thresholds)
    def test_explicit_flush_changes_nothing(self, history, flush_threshold):
        dict_index, columnar = build_pair(history, flush_threshold)
        columnar.flush()
        assert columnar.pending_mutations == 0
        assert_equivalent(dict_index, columnar, "flushed")

    def test_level0_tombstones_and_revivals_together(self):
        # A 40-row main run, two tombstones, one of them revived, and three
        # level-0 rows, one of them removed again: both runs and the dead
        # positions are read at once.
        load = ([(s, 0, o) for s in range(5) for o in range(4)]
                + [(s, 1, s) for s in range(20)])
        writes = [("remove", (0, 0, 0)), ("remove", (4, 1, 4)), ("readd", 0),
                  ("add", (6, 2, 6)), ("batch", [(5, 0, 1), (6, 1, 5)]),
                  ("remove", (5, 0, 1))]
        seen = []

        def check(dict_index, columnar):
            seen.append(columnar.pending_mutations)
            assert_equivalent(dict_index, columnar, "mixed")
            assert_scans_agree(dict_index, columnar)

        build_pair((load, writes), 8, check)
        assert seen == [1, 2, 1, 2, 4, 3]

    def test_large_writes_into_level0(self):
        # Writes of more than a few dozen rows into key groups level 0
        # already holds place them with an array pass, not row by row.
        rng = random.Random(7)
        dict_index, columnar = DictTripleIndex(), TripleIndex()
        added = []
        for n in (3000, 150, 300):
            rows = [(rng.randrange(40), rng.randrange(3), rng.randrange(40))
                    for _ in range(n)]
            added.append(add_batch(columnar, rows))
            assert added[-1] == sum(dict_index.add(*r) for r in rows)
        assert columnar.pending_mutations == added[1] + added[2]
        for which in range(3):
            run = columnar.levels(which)[-1][0]
            a, b, c, _starts = run.as_numpy()
            assert (np.lexsort((c, b, a)) == np.arange(run.n)).all()
        assert set(columnar.match(None, None, None)) == set(
            dict_index.match(None, None, None))
        for x in range(40):
            for y in range(3):
                assert sorted(columnar.scan_objects(x, y)) == sorted(
                    dict_index.scan_objects(x, y))
                assert sorted(columnar.scan_subjects(y, x)) == sorted(
                    dict_index.scan_subjects(y, x))


class TestSnapshotEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(histories, flush_thresholds)
    def test_reloaded_snapshot_agrees_with_dict(
        self, tmp_path_factory, history, flush_threshold
    ):
        dict_index, columnar = build_pair(history, flush_threshold)
        loaded, remap = snapshot_copy(columnar, tmp_path_factory)
        # Compare through the remap: every match in the loaded index maps
        # back onto the reference set, shape by shape.
        inverse = {v: k for k, v in remap.items()}
        for probe in range(7):
            if probe not in inverse:
                # Terms absent from the final triple set aren't in the
                # snapshot; the reference must agree they match nothing.
                for shape in PATTERN_SHAPES[1:]:
                    bound = tuple(probe if b == 0 else None for b in shape)
                    assert dict_index.count(*bound) == 0
                continue
            for shape in PATTERN_SHAPES:
                bound_ref = tuple(probe if b == 0 else None for b in shape)
                bound_new = tuple(
                    inverse[probe] if b == 0 else None for b in shape
                )
                expected = set(dict_index.match(*bound_ref))
                got = {
                    (remap[s], remap[p], remap[o])
                    for (s, p, o) in loaded.match(*bound_new)
                }
                assert got == expected, shape
                assert loaded.count(*bound_new) == len(expected), shape
        for pid in dict_index.predicates():
            if pid in inverse:
                assert loaded.predicate_stats(inverse[pid]) == dict_index.predicate_stats(pid)
