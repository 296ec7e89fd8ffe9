"""Reads after writes: batched ≡ tuple ≡ term-space, and nothing row by row.

Writes land in a sorted level-0 run and removals of main-run rows in a
sorted array of dead positions, so every batched scan, probe and driving
scan reads ``main − dead ∪ L0`` with array operations.  Over graphs whose
main run carries both — plus revived tombstones — each query shape the
batched engine vectorizes must give the tuple engine's rows in the
tuple engine's order (``LIMIT`` slices positionally), the term-space
interpreter's solutions, and send no row through the per-row fallback.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import IRI, Triple, literal_from_python
from repro.sparql import Evaluator, parse_query
from repro.store import EndpointStats, Graph

EX = "http://example.org/"

#: One query per batched path: the three driving scans, SPO and POS
#: probes, containment, the open-predicate shapes, a cross step, a seed
#: row (VALUES), a numeric FILTER, a grouped aggregate, and a LIMIT.
QUERIES = [
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b }}",
    f"SELECT ?a WHERE {{ ?a <{EX}p0> <{EX}n1> }}",
    f"SELECT ?b WHERE {{ <{EX}n0> <{EX}p0> ?b }}",
    f"SELECT ?a ?b ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }}",
    f"SELECT ?a ?b ?c WHERE {{ ?a <{EX}p0> ?b . ?c <{EX}p1> ?b }}",
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . ?a <{EX}p1> ?b }}",
    f"SELECT ?a ?p ?c WHERE {{ ?a <{EX}p0> ?b . ?a ?p ?c }}",
    f"SELECT ?a ?p ?c WHERE {{ ?a <{EX}p2> ?b . ?c ?p ?b }}",
    f"SELECT ?a ?b ?p WHERE {{ ?a <{EX}p0> ?b . ?a ?p ?b }}",
    f"SELECT ?a ?c WHERE {{ <{EX}n0> <{EX}p0> ?a . ?x <{EX}p1> ?c }}",
    f"SELECT ?a WHERE {{ VALUES ?b {{ <{EX}n1> <{EX}n2> }} ?a <{EX}p0> ?b }}",
    f"SELECT ?a ?v WHERE {{ ?a <{EX}value> ?v FILTER(?v > 10) }}",
    f"SELECT ?b (COUNT(?a) AS ?n) (SUM(?v) AS ?s) WHERE "
    f"{{ ?a <{EX}p0> ?b . ?a <{EX}value> ?v }} GROUP BY ?b",
    f"SELECT ?a ?b ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }} LIMIT 3",
]

ids = st.integers(min_value=0, max_value=5)
rows = st.tuples(ids, st.integers(min_value=0, max_value=2), ids)
writes = st.lists(
    st.one_of(st.tuples(st.just("add"), rows),
              st.tuples(st.just("add_all"), st.lists(rows, max_size=3)),
              st.tuples(st.just("remove"), st.integers(min_value=0)),
              st.just(("readd", 0))),
    max_size=8)


def triple(s, p, o):
    return Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}p{p}"), IRI(f"{EX}n{o}"))


def value(s):
    return Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}value"), literal_from_python(s * 10))


def written_graph(load, history):
    """A main run of ``load`` (and a value per subject), then ``history``:
    adds land in level 0, removals of loaded rows become tombstones, and
    a re-add revives the last one."""
    loaded = [triple(*row) for row in load] + [value(s) for s in range(6)]
    graph = Graph(triples=loaded)
    removed = []
    for op, arg in history:
        if op == "add":
            graph.add(triple(*arg))
        elif op == "add_all":
            graph.add_all([triple(*row) for row in arg])
        elif op == "remove":
            victim = loaded[arg % len(loaded)]
            if graph.remove(victim):
                removed.append(victim)
        elif removed:
            graph.add(removed.pop())
    return graph


def assert_parity(graph, query_text, batch_size):
    query = parse_query(query_text)
    stats = EndpointStats()
    batched = Evaluator(graph, batch_size=batch_size, stats=stats).select(query)
    rows = Evaluator(graph, vectorize=False).select(query)
    assert batched.rows == rows.rows, query_text
    reference = Evaluator(graph, compile=False).select(query)
    assert sorted(map(repr, batched.rows)) == sorted(map(repr, reference.rows))
    assert stats.batched_executions == 1
    assert stats.fallback_batch_rows == 0, query_text


class TestReadsAfterWrites:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(rows, min_size=30, max_size=60), writes,
           st.sampled_from(range(len(QUERIES))), st.sampled_from([1, 3, 64]))
    def test_batched_equals_tuple_without_fallback(self, load, history, qidx,
                                                   batch_size):
        graph = written_graph(load, history)
        assert_parity(graph, QUERIES[qidx], batch_size)

    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_level0_and_tombstones_on_a_fixed_graph(self, qidx, batch_size):
        load = [(s, p, o) for s in range(6) for p in range(3) for o in range(6)
                if (s + 2 * p + o) % 3 == 0]
        history = [("remove", 0), ("remove", 7), ("remove", 9), ("readd", 0),
                   ("add", (0, 0, 5)), ("add_all", [(5, 1, 0), (2, 2, 2)])]
        graph = written_graph(load, history)
        levels = graph.triple_index.levels(0)
        assert len(levels) == 2 and levels[0][1] is not None  # L0 and dead rows
        assert_parity(graph, QUERIES[qidx], batch_size)
