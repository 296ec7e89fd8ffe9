"""The batched group table and the term dictionaries' numeric memo.

Batched aggregation folds every batch of a query into one group table
(dense first-occurrence group ids, ``bincount`` counts and exact sums,
rank-and-position MIN/MAX, in-order replays elsewhere).  These properties
pin it to the tuple-at-a-time fold row for row — same groups in the same
order, same terms, bit-identical floats, same errors — over multi-key
GROUP BYs with OPTIONAL-unbound key components, every aggregate, and
values chosen to force each exact and replay path.  Small batch sizes
make groups span batches; group ids come from both the small-table dict
and ``np.unique``.
"""

import gc
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Literal, Triple
from repro.rdf.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.sparql import Evaluator, aggregator, parse_query
from repro.store import EndpointStats, Graph
from repro.store.index import MALFORMED, NOT_NUMERIC, numeric_of

EX = "http://example.org/"
OBS = IRI(f"{EX}Obs")
TYPE = IRI(f"{EX}type")


def iri(name):
    return IRI(EX + name)


#: Measure values: exact integers (one past 2**53), MIN/MAX ties across
#: datatypes and lexical forms (equal numbers, two infinities, signed
#: zeros), decimals and doubles that force the in-order sum, then a NaN
#: literal, a malformed number and non-numeric terms.
VALUES = [
    Literal("5", datatype=XSD_INTEGER),
    Literal("05", datatype=XSD_INTEGER),
    Literal("5", datatype=XSD_DECIMAL),
    Literal("5.0", datatype=XSD_DECIMAL),
    Literal("5", datatype=XSD_DOUBLE),
    Literal("-3", datatype=XSD_INTEGER),
    Literal("12", datatype=XSD_INTEGER),
    Literal(str(2 ** 53 - 1), datatype=XSD_INTEGER),
    Literal(str(2 ** 53 + 1), datatype=XSD_INTEGER),
    Literal("0.1", datatype=XSD_DOUBLE),
    Literal("2.5e-3", datatype=XSD_DOUBLE),
    Literal("1.1", datatype=XSD_DECIMAL),
    Literal("INF", datatype=XSD_DOUBLE),
    Literal("1e999", datatype=XSD_DOUBLE),
    Literal("-0", datatype=XSD_DOUBLE),
    Literal("0", datatype=XSD_INTEGER),
    Literal("NaN", datatype=XSD_DOUBLE),
    Literal("abc", datatype=XSD_INTEGER),
    Literal("label"),
    iri("v"),
]

AGGREGATES = [
    f"{func}({distinct}?v)"
    for func in ("COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT")
    for distinct in ("", "DISTINCT ")
] + ["COUNT(*)"]

#: Value indices, the well-formed numbers four times as likely as the
#: last four values (NaN, malformed, non-numeric), which send a whole
#: batch down an ordered replay.
value_index = st.sampled_from(list(range(len(VALUES) - 4)) * 4
                              + list(range(len(VALUES) - 4, len(VALUES))))
member = st.integers(min_value=0, max_value=1)
observations = st.lists(
    st.tuples(
        member,                                   # key a, always bound
        st.one_of(st.none(), member),             # key b, OPTIONAL
        st.one_of(st.none(), member),             # key c, OPTIONAL
        st.one_of(st.none(), value_index),
    ),
    min_size=1, max_size=30,
)


def cube(rows):
    triples = []
    for index, (a, b, c, value) in enumerate(rows):
        obs = iri(f"o{index}")
        triples.append(Triple(obs, TYPE, OBS))
        triples.append(Triple(obs, iri("a"), iri(f"a{a}")))
        if b is not None:
            triples.append(Triple(obs, iri("b"), iri(f"b{b}")))
        if c is not None:
            triples.append(Triple(obs, iri("c"), iri(f"c{c}")))
        if value is not None:
            triples.append(Triple(obs, iri("v"), VALUES[value]))
    graph = Graph(triples=triples[:-3])
    graph.add_all(triples[-3:])  # a write after the load
    return graph


def grouped_query(keys, aggregate, optional_value):
    value = (f"OPTIONAL {{ ?o <{EX}v> ?v }}" if optional_value
             else f"?o <{EX}v> ?v .")
    return parse_query(
        f"SELECT {keys} ({aggregate} AS ?x) (COUNT(*) AS ?n) WHERE {{ "
        f"?o <{EX}type> <{EX}Obs> . ?o <{EX}a> ?a . "
        f"OPTIONAL {{ ?o <{EX}b> ?b }} OPTIONAL {{ ?o <{EX}c> ?c }} "
        f"{value} }} GROUP BY {keys}"
    )


def outcome(evaluator, query):
    """Result rows, or the error an engine raised (type and message)."""
    try:
        return evaluator.select(query).rows
    except ValueError as exc:
        return (type(exc), str(exc))


def small_table(enabled):
    """Group ids from the small-table dict (``enabled``) or ``np.unique``."""
    limit = aggregator._SMALL_TABLE if enabled else -1
    return mock.patch.object(aggregator, "_SMALL_TABLE", limit)


class TestGroupedFoldParity:
    @settings(max_examples=100, deadline=None)
    @given(observations, st.sampled_from(["?a ?b", "?a ?b ?c", "?b ?c"]),
           st.booleans(), st.sampled_from([1, 2, 3, 5, 64]), st.booleans())
    def test_batched_equals_tuple_row_for_row(self, rows, keys,
                                              optional_value, batch_size,
                                              dict_ids):
        graph = cube(rows)
        stats = EndpointStats()
        batched = Evaluator(graph, vectorize=True, batch_size=batch_size,
                            stats=stats)
        tuple_engine = Evaluator(graph, vectorize=False)
        for aggregate in AGGREGATES:
            query = grouped_query(keys, aggregate, optional_value)
            with small_table(dict_ids):
                got = outcome(batched, query)
            assert got == outcome(tuple_engine, query), aggregate
        assert stats.fallback_batch_rows == 0

    def test_min_max_ties_follow_the_row_order(self):
        # "5"^^integer, "5"^^decimal and "5"^^double share one sort key:
        # MIN keeps the first, MAX the last — also across batches.
        rows = [(0, 0, None, 2), (0, 0, None, 0), (0, 0, None, 4)]
        graph = cube(rows)
        for batch_size in (1, 2, 64):
            batched = Evaluator(graph, vectorize=True, batch_size=batch_size)
            for func, expected in (("MIN", VALUES[2]), ("MAX", VALUES[4])):
                query = grouped_query("?a ?b", f"{func}(?v)", False)
                assert batched.select(query).rows[0][2] == expected
                assert outcome(batched, query) == outcome(
                    Evaluator(graph, vectorize=False), query)

    def test_equal_numbers_order_by_lexical_form(self):
        # Equal numbers compare by lexical form: "05" < "5", "1e999" <
        # "INF" — whichever id the dictionary assigned first.
        cases = [((0, 1), "MIN", 1), ((0, 1), "MAX", 0),
                 ((12, 13), "MIN", 13), ((12, 13), "MAX", 12)]
        for values, func, expected in cases:
            graph = cube([(0, 0, None, v) for v in values])
            query = grouped_query("?a ?b", f"{func}(?v)", False)
            for vectorize in (True, False):
                rows = Evaluator(graph, vectorize=vectorize).select(query).rows
                assert rows[0][2] == VALUES[expected]

    def test_inexact_sums_stay_bit_identical(self):
        rows = [(0, 0, None, 9), (0, 0, None, 10), (0, 0, None, 11)] * 5
        graph = cube(rows)
        query = grouped_query("?a ?b", "SUM(?v)", False)
        expected = Evaluator(graph, vectorize=False).select(query).rows
        for batch_size in (1, 4, 64):
            batched = Evaluator(graph, vectorize=True, batch_size=batch_size)
            assert batched.select(query).rows == expected


def integer(value):
    return Literal(str(value), datatype=XSD_INTEGER)


def member_cube(rows):
    """Observations of ``(a member, value or None)`` pairs, in order."""
    triples = []
    for index, (a, value) in enumerate(rows):
        obs = iri(f"o{index}")
        triples.append(Triple(obs, TYPE, OBS))
        triples.append(Triple(obs, iri("a"), iri(f"a{a}")))
        if value is not None:
            triples.append(Triple(obs, iri("v"), integer(value)))
    return Graph(triples=triples)


def select(graph, projections, group_by="?a", where=""):
    return parse_query(
        f"SELECT {projections} WHERE {{ ?o <{EX}type> <{EX}Obs> . "
        f"?o <{EX}a> ?a . OPTIONAL {{ ?o <{EX}v> ?v }} {where} }} {group_by}")


def every_engine(graph, query):
    """The rows of the tuple engine, after asserting that the group table
    gives the same rows in the same order at every batch size, with
    group ids from both the dict and ``np.unique``."""
    expected = Evaluator(graph, vectorize=False).select(query).rows
    for batch_size in (1, 2, 3, 64):
        for dict_ids in (True, False):
            batched = Evaluator(graph, vectorize=True, batch_size=batch_size)
            with small_table(dict_ids):
                assert batched.select(query).rows == expected, \
                    (batch_size, dict_ids)
    return expected


class TestGroupTableCases:
    def test_count_distinct(self):
        graph = member_cube([(0, 1), (0, 1), (0, 2), (1, 2), (1, None),
                             (0, 2), (1, 2)])
        rows = every_engine(graph, select(
            graph, "?a (COUNT(DISTINCT ?v) AS ?d) (COUNT(?v) AS ?n)",
            "GROUP BY ?a"))
        assert rows == [(iri("a0"), integer(2), integer(4)),
                        (iri("a1"), integer(1), integer(2))]

    def test_sample_takes_the_first_bound_value(self):
        graph = member_cube([(0, None), (1, 7), (0, 5), (0, 6), (1, 8)])
        rows = every_engine(graph, select(
            graph, "?a (SAMPLE(?v) AS ?s)", "GROUP BY ?a"))
        assert rows == [(iri("a0"), integer(5)), (iri("a1"), integer(7))]

    def test_all_unbound_argument_column(self):
        graph = member_cube([(0, None), (1, None), (0, None)])
        for variable in ("?v", "?never"):  # unbound rows; never-bound slot
            rows = every_engine(graph, select(
                graph,
                f"?a (COUNT({variable}) AS ?n) (SUM({variable}) AS ?s) "
                f"(AVG({variable}) AS ?m) (MIN({variable}) AS ?lo) "
                f"(SAMPLE({variable}) AS ?x) (GROUP_CONCAT({variable}) AS ?g) "
                "(COUNT(*) AS ?all)",
                "GROUP BY ?a"))
            zero = integer(0)
            assert rows == [
                (iri("a0"), zero, zero, zero, None, None, Literal(""), integer(2)),
                (iri("a1"), zero, zero, zero, None, None, Literal(""), integer(1)),
            ]

    def test_zero_rows(self):
        graph = member_cube([(0, 1)])
        nothing = f"FILTER (?a = <{EX}none>)"
        projections = "(COUNT(*) AS ?n) (SUM(?v) AS ?s) (MIN(?v) AS ?lo)"
        grouped = every_engine(graph, select(
            graph, f"?a {projections}", "GROUP BY ?a", nothing))
        assert grouped == []
        ungrouped = every_engine(graph, select(graph, projections, "", nothing))
        assert ungrouped == [(integer(0), integer(0), None)]

    def test_distinct_folds_follow_first_occurrence_not_id_order(self):
        # The dictionary meets the values in reverse, so id order is the
        # reverse of first occurrence.  "5"^^integer and "5"^^decimal
        # share a sort key: MAX(DISTINCT) keeps the later first
        # occurrence.  0.1 + 0.2 + 0.3 rounds differently backwards.
        tie = [Literal("5", datatype=XSD_INTEGER), Literal("5", datatype=XSD_DECIMAL)]
        tenths = [Literal(f"0.{i}", datatype=XSD_DECIMAL) for i in (1, 2, 3)]
        for values, aggregate, expected in ((tie, "MAX", tie[1]),
                                            (tenths, "SUM", None)):
            triples = [Triple(iri(f"seen{i}"), iri("w"), value)
                       for i, value in enumerate(reversed(values))]
            for index, value in enumerate(values + values):
                obs = iri(f"o{index}")
                triples += [Triple(obs, TYPE, OBS), Triple(obs, iri("a"), iri("a0")),
                            Triple(obs, iri("v"), value)]
            graph = Graph(triples=triples)
            [(_a, value)] = every_engine(graph, select(
                graph, f"?a ({aggregate}(DISTINCT ?v) AS ?x)", "GROUP BY ?a"))
            if expected is None:
                assert value.numeric_value() == 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
            else:
                assert value == expected

    def test_groups_follow_first_occurrence_across_batches(self):
        members = [3, 1, 3, 0, 2, 1, 0, 4, 2, 3]
        graph = member_cube([(a, i) for i, a in enumerate(members)])
        body_order = [row[0] for row in Evaluator(graph).select(parse_query(
            f"SELECT ?a WHERE {{ ?o <{EX}type> <{EX}Obs> . ?o <{EX}a> ?a . "
            f"OPTIONAL {{ ?o <{EX}v> ?v }} }}")).rows]
        first_seen = list(dict.fromkeys(body_order))
        rows = every_engine(graph, select(
            graph, "?a (SUM(?v) AS ?s) (MAX(?v) AS ?hi)", "GROUP BY ?a"))
        assert [row[0] for row in rows] == first_seen
        assert len(first_seen) == 5


def value_cube(values, prefix="o"):
    triples = []
    for index, value in enumerate(values):
        obs = iri(f"{prefix}{index}")
        triples.append(Triple(obs, TYPE, OBS))
        triples.append(Triple(obs, iri("v"), value))
    return triples


SUM_QUERY = (f"SELECT (SUM(?v) AS ?s) WHERE {{ ?o <{EX}type> <{EX}Obs> . "
             f"?o <{EX}v> ?v }}")


def total(graph):
    return Evaluator(graph).select(SUM_QUERY).rows[0][0].to_python()


class TestNumericMemo:
    def test_classifies_terms(self):
        assert numeric_of(Literal("05", datatype=XSD_INTEGER)) == 5.0
        assert numeric_of(Literal("NaN", datatype=XSD_DOUBLE)) is MALFORMED
        assert numeric_of(Literal("abc", datatype=XSD_INTEGER)) is MALFORMED
        assert numeric_of(Literal("5")) is NOT_NUMERIC
        assert numeric_of(iri("x")) is NOT_NUMERIC

    def test_second_graph_after_the_first_is_dropped(self):
        # Same term ids, different values: a memo keyed by anything that
        # outlives the dictionary would answer 5 for the second graph.
        first = Graph(triples=value_cube([Literal("5", datatype=XSD_INTEGER)]))
        value_id = first.term_dictionary.lookup(
            Literal("5", datatype=XSD_INTEGER))
        assert total(first) == 5
        del first
        gc.collect()
        second = Graph(triples=value_cube([Literal("7", datatype=XSD_INTEGER)]))
        assert second.term_dictionary.lookup(
            Literal("7", datatype=XSD_INTEGER)) == value_id
        assert total(second) == 7

    def test_grows_with_the_ids_looked_up(self):
        values = [Literal(str(i), datatype=XSD_INTEGER) for i in range(10)]
        graph = Graph(triples=value_cube(values))
        memo = graph.term_dictionary._numbers
        assert not memo
        assert total(graph) == 45
        assert len(memo) == 10 < len(graph.term_dictionary)
        graph.add_all(value_cube(
            [Literal(str(i), datatype=XSD_INTEGER) for i in range(10, 13)],
            prefix="late"))
        assert total(graph) == 45 + 10 + 11 + 12
        assert len(memo) == 13

    def test_snapshot_dictionary_has_its_own_memo(self, tmp_path):
        values = [Literal(str(i), datatype=XSD_DECIMAL) for i in range(6)]
        path = str(tmp_path / "graph.snap")
        Graph(triples=value_cube(values)).save_snapshot(path)
        loaded = Graph.load_snapshot(path)
        assert total(loaded) == 15
        terms = loaded.term_dictionary
        assert terms.numeric(terms.lookup(values[4])) == 4.0
        assert len(terms._numbers) == 6

    def test_concurrent_readers_agree(self):
        values = [Literal(f"{i}.5", datatype=XSD_DECIMAL) for i in range(300)]
        graph = Graph(triples=value_cube(values))
        terms = graph.term_dictionary
        ids = [terms.lookup(value) for value in values]
        expected = sum(i + 0.5 for i in range(300))
        errors = []

        def reader(offset):
            try:
                for _ in range(4):
                    for term_id in ids[offset:] + ids[:offset]:
                        assert terms.numeric(term_id) == float(
                            terms.decode(term_id).lexical)
                    assert total(graph) == pytest.approx(expected)
            except BaseException as exc:  # surfaced on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(k * 70,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(terms._numbers) == 300
