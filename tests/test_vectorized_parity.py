"""Property parity: batched execution ≡ tuple operators ≡ term-space.

The vectorized executor (repro.sparql.vectorized) re-implements every
operator's semantics over integer-array batches, with per-row fallback
for the shapes it does not vectorize.  These properties pin the whole
surface to the two reference engines over random cubes:

* random store states: fully folded runs, writes pending on top of
  folded runs (level-0 rows and tombstones, read batched alongside the
  main run), and graphs built one add at a time;
* adversarial batch geometry: 1-row batches exercise every
  batch-boundary path;
* the operator zoo: OPTIONAL (with inner filters), UNION, VALUES,
  property paths, repeated variables, numeric FILTERs both ways,
  grouped aggregates, COALESCE/IF in FILTER and BIND, and the
  formerly-declining shapes — BIND (including error rows), EXISTS/NOT
  EXISTS, MINUS, and nested subqueries (plain, DISTINCT and aggregate).

Besides the Hypothesis draws, every query runs once over a fixed cube in
each store state, so no shape depends on the draw to be reached.

Row order is part of the contract *within* the compiled engine (LIMIT
without ORDER BY slices positionally), so batched and tuple results
compare exactly.  The term-space interpreter may emit another
implementation-defined order for the same solutions (it walks property
paths breadth-first from a different frontier, for one), so the
cross-engine comparison is a multiset.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExplorationSession, VirtualSchemaGraph
from repro.qb import OBSERVATION_CLASS
from repro.rdf import IRI, BNode, Literal, Triple, literal_from_python
from repro.rdf.terms import XSD_DATE, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING
from repro.sparql import Evaluator, parse_query, vectorized
from repro.store import Endpoint, Graph

EX = "http://example.org/"

# Tiny universes so random BGPs actually join.
subject_ids = st.integers(min_value=0, max_value=5)
predicate_ids = st.integers(min_value=0, max_value=2)
object_ids = st.integers(min_value=0, max_value=5)

graph_triples = st.lists(
    st.tuples(subject_ids, predicate_ids, object_ids), min_size=1, max_size=30
)
#: Triples added *after* the load — pending writes over the main runs.
overlay_triples = st.lists(
    st.tuples(subject_ids, predicate_ids, object_ids), max_size=6
)
#: "flushed" → main runs only; "overlay" → main runs plus pending writes
#: (level 0 and tombstones); "buffered" → one add at a time.
store_states = st.sampled_from(["flushed", "overlay", "buffered"])
batch_sizes = st.sampled_from([1, 3, 64])

QUERIES = [
    # join + numeric filters, both orientations
    f"SELECT ?a ?b ?v WHERE {{ ?a <{EX}p0> ?b . ?a <{EX}value> ?v . "
    f"FILTER(?v >= 20) }}",
    f"SELECT ?a ?v WHERE {{ ?a <{EX}value> ?v . FILTER(30 > ?v) }}",
    # OPTIONAL, plain and with an inner filter
    f"SELECT ?a ?b ?v WHERE {{ ?a <{EX}p0> ?b . "
    f"OPTIONAL {{ ?b <{EX}p1> ?v }} }}",
    f"SELECT ?a ?b ?v WHERE {{ ?a <{EX}p0> ?b . "
    f"OPTIONAL {{ ?a <{EX}value> ?v . FILTER(?v < 30) }} }}",
    # UNION of two branches, joined back against the measure
    f"SELECT ?a ?v WHERE {{ {{ ?a <{EX}p0> ?x . }} UNION "
    f"{{ ?a <{EX}p1> ?x . }} ?a <{EX}value> ?v }}",
    # VALUES with an UNDEF row
    f"SELECT ?a ?b WHERE {{ VALUES ?b {{ <{EX}n0> <{EX}n2> UNDEF }} "
    f"?a <{EX}p0> ?b }}",
    # property path closure (falls back per-row by design)
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0>+ ?b }}",
    # repeated variable → register-equality filter
    f"SELECT ?a WHERE {{ ?a <{EX}p0> ?a }}",
    # bound-subject probe and contains shape
    f"SELECT ?b WHERE {{ <{EX}n1> <{EX}p0> ?b }}",
    f"SELECT ?a WHERE {{ ?a <{EX}p0> <{EX}n2> . ?a <{EX}p1> <{EX}n3> }}",
    # DISTINCT + LIMIT (positional slice must survive batching)
    f"SELECT DISTINCT ?a WHERE {{ ?a <{EX}p0> ?b }} LIMIT 3",
    # BIND: computed register (distinct-table kernel), then filter on it
    f"SELECT ?a ?w WHERE {{ ?a <{EX}value> ?v . BIND(?v * 2 AS ?w) "
    f"FILTER(?w >= 40) }}",
    # BIND type error: IRI + 1 errors per-row, ?w stays unbound
    f"SELECT ?a ?w WHERE {{ ?a <{EX}p0> ?b . BIND(?b + 1 AS ?w) }}",
    # BIND over an OPTIONAL register: unbound rows error, bound rows bind
    f"SELECT ?a ?w WHERE {{ ?a <{EX}p0> ?b . "
    f"OPTIONAL {{ ?b <{EX}value> ?v }} BIND(?v AS ?w) }}",
    # EXISTS / NOT EXISTS correlated semi/anti joins
    f"SELECT ?a WHERE {{ ?a <{EX}p0> ?b . "
    f"FILTER EXISTS {{ ?a <{EX}p1> ?c }} }}",
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . "
    f"FILTER NOT EXISTS {{ ?b <{EX}p1> ?c }} }}",
    # EXISTS whose inner filter errors on IRIs: never matches
    f"SELECT ?a WHERE {{ ?a <{EX}p0> ?b . "
    f"FILTER EXISTS {{ ?b <{EX}p1> ?c . FILTER(?c > 0) }} }}",
    # EXISTS / NOT EXISTS correlated on both outer variables
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . "
    f"FILTER EXISTS {{ ?b <{EX}p1> ?a }} }}",
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . "
    f"FILTER NOT EXISTS {{ ?a <{EX}p1> ?b }} }}",
    # MINUS on a shared variable, and MINUS with nothing shared
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . MINUS {{ ?a <{EX}p1> ?c }} }}",
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . MINUS {{ ?x <{EX}p1> ?y }} }}",
    # MINUS sharing both variables, one of them bound only on the right
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?b . "
    f"MINUS {{ ?a <{EX}p1> ?b . ?b <{EX}p2> ?c }} }}",
    # nested subqueries: plain join, DISTINCT, and aggregate (runtime-minted
    # counts)
    f"SELECT ?a ?b WHERE {{ {{ SELECT ?a WHERE {{ ?a <{EX}p1> ?y }} }} "
    f"?a <{EX}p0> ?b }}",
    f"SELECT ?a ?b WHERE {{ {{ SELECT DISTINCT ?a WHERE {{ ?a <{EX}p1> ?y }} }} "
    f"?a <{EX}p0> ?b }}",
    f"SELECT ?a ?n WHERE {{ {{ SELECT ?a (COUNT(*) AS ?n) WHERE "
    f"{{ ?a <{EX}p0> ?x }} GROUP BY ?a }} ?a <{EX}value> ?v }}",
    # one-column non-numeric FILTER (register-program distinct table)
    f'SELECT ?a WHERE {{ ?a <{EX}p0> ?b . FILTER regex(STR(?b), "n[024]") }}',
    # variable predicates: bound subject, bound object, both, constants
    f"SELECT ?a ?p ?b WHERE {{ ?a <{EX}p0> ?x . ?a ?p ?b }}",
    f"SELECT ?a ?p ?b WHERE {{ ?x <{EX}p0> ?b . ?a ?p ?b }}",
    f"SELECT ?a ?p ?b WHERE {{ ?a <{EX}p0> ?b . ?a ?p ?b }}",
    f"SELECT ?p ?o WHERE {{ <{EX}n1> ?p ?o }}",
    f"SELECT ?s ?p WHERE {{ ?s ?p <{EX}n2> }}",
    f"SELECT ?a ?p WHERE {{ ?a <{EX}p1> ?x . ?a ?p ?a }}",
    # paths from bound, constant and repeated ends
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p0> ?x . ?x <{EX}p0>/<{EX}p1> ?b }}",
    f"SELECT ?b WHERE {{ <{EX}n1> <{EX}p0>+ ?b }}",
    f"SELECT ?a WHERE {{ ?a <{EX}p1>* ?a }}",
    f"SELECT ?a ?b WHERE {{ ?a <{EX}p1> ?b . ?a ^<{EX}p0>* ?b }}",
    # COALESCE and IF over an OPTIONAL register, in FILTER and in BIND:
    # an unbound argument errors, and COALESCE/IF catch or pass it on
    f"SELECT ?a ?v WHERE {{ ?a <{EX}p0> ?b . "
    f"OPTIONAL {{ ?b <{EX}value> ?v }} FILTER(COALESCE(?v, 0) < 30) }}",
    f"SELECT ?a ?v WHERE {{ ?a <{EX}p0> ?b . "
    f"OPTIONAL {{ ?b <{EX}value> ?v }} FILTER(IF(BOUND(?v), ?v >= 20, ?a != ?b)) }}",
    f"SELECT ?a ?w WHERE {{ ?a <{EX}p0> ?b . "
    f"OPTIONAL {{ ?b <{EX}value> ?v }} BIND(COALESCE(?v, ?b) AS ?w) }}",
    f"SELECT ?a ?w WHERE {{ ?a <{EX}p0> ?b . "
    f"OPTIONAL {{ ?b <{EX}value> ?v }} BIND(IF(?v >= 20, \"hi\", \"lo\") AS ?w) }}",
]

AGG_QUERIES = [
    f"SELECT ?b (COUNT(*) AS ?n) (SUM(?v) AS ?s) WHERE "
    f"{{ ?a <{EX}p0> ?b . ?a <{EX}value> ?v }} GROUP BY ?b",
    f"SELECT ?b (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE "
    f"{{ ?a <{EX}p0> ?b . ?a <{EX}value> ?v }} GROUP BY ?b",
    f"SELECT (COUNT(DISTINCT ?b) AS ?n) (AVG(?v) AS ?m) WHERE "
    f"{{ ?a <{EX}p0> ?b . ?a <{EX}value> ?v }}",
    f"SELECT ?b (GROUP_CONCAT(?a) AS ?members) WHERE "
    f"{{ ?a <{EX}p0> ?b }} GROUP BY ?b",
]


def build_graph(encoded, overlay, state):
    """A graph in one of the three store states.

    ``Graph(triples=)`` loads into main runs, so the overlay is built
    afterwards with ``add()``/``remove()`` (the removal of a run-resident
    triple guarantees a tombstone even when every overlay triple is a
    duplicate), and the buffered store with ``add()`` alone.
    """
    def triple(s, p, o):
        return Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}p{p}"), IRI(f"{EX}n{o}"))

    triples = [triple(*t) for t in encoded] + [
        Triple(IRI(f"{EX}n{s}"), IRI(f"{EX}value"), literal_from_python(s * 10))
        for s in {s for s, _p, _o in encoded}
    ]
    if state == "buffered":
        graph = Graph()
        for t in triples:
            graph.add(t)
    else:
        graph = Graph(triples=triples)
        assert graph.triple_index.pending_mutations == 0
    if state == "overlay":
        for t in overlay:
            graph.add(triple(*t))
        graph.remove(triples[0])
        assert graph.triple_index.pending_mutations > 0
    return graph


def engines(graph, batch_size):
    """(batched, tuple-at-a-time, term-space) evaluators over ``graph``."""
    return (
        Evaluator(graph, compile=True, vectorize=True, batch_size=batch_size),
        Evaluator(graph, compile=True, vectorize=False),
        Evaluator(graph, compile=False),
    )


def assert_select_parity(graph, query, batch_size):
    batched, tuple_at_a_time, term_space = engines(graph, batch_size)
    vec = batched.select(query)
    tup = tuple_at_a_time.select(query)
    ref = term_space.select(query)
    assert vec.variables == tup.variables == ref.variables
    # Same physical plan → identical row order.
    assert vec.rows == tup.rows
    # Different engine → same solutions, order implementation-defined.
    assert sorted(map(repr, vec.rows)) == sorted(map(repr, ref.rows))


#: A cube on which each satisfiable EXISTS / NOT EXISTS and each
#: shared-variable MINUS keeps some rows and drops others, and the
#: DISTINCT subquery sees a duplicate.
FIXED_CUBE = [(0, 0, 1), (0, 1, 1), (0, 1, 2), (1, 0, 2), (1, 1, 0),
              (1, 2, 3), (2, 0, 3), (2, 1, 2), (3, 0, 3), (3, 2, 4),
              (2, 2, 1), (4, 1, 5)]


class TestVectorizedParity:
    @settings(max_examples=40, deadline=None)
    @given(graph_triples, overlay_triples, store_states,
           st.sampled_from(range(len(QUERIES))), batch_sizes)
    def test_select_parity(self, encoded, overlay, state, qidx, batch_size):
        graph = build_graph(encoded, overlay, state)
        assert_select_parity(graph, parse_query(QUERIES[qidx]), batch_size)

    @pytest.mark.parametrize("state", ["flushed", "overlay", "buffered"])
    @pytest.mark.parametrize("qidx", range(len(QUERIES)))
    def test_select_parity_on_fixed_cube(self, qidx, state):
        graph = build_graph(FIXED_CUBE, [(5, 0, 4)], state)
        assert_select_parity(graph, parse_query(QUERIES[qidx]), 2)

    @settings(max_examples=30, deadline=None)
    @given(graph_triples, overlay_triples, store_states,
           st.sampled_from(range(len(AGG_QUERIES))), batch_sizes)
    def test_aggregate_parity(self, encoded, overlay, state, qidx, batch_size):
        graph = build_graph(encoded, overlay, state)
        query = parse_query(AGG_QUERIES[qidx])
        batched, tuple_at_a_time, term_space = engines(graph, batch_size)
        vec = batched.select(query)
        tup = tuple_at_a_time.select(query)
        ref = term_space.select(query)
        assert vec.variables == tup.variables == ref.variables
        assert sorted(map(repr, vec.rows)) == sorted(map(repr, tup.rows)) \
            == sorted(map(repr, ref.rows))

    @settings(max_examples=25, deadline=None)
    @given(graph_triples, overlay_triples, store_states, batch_sizes)
    def test_ask_and_construct_parity(self, encoded, overlay, state,
                                      batch_size):
        graph = build_graph(encoded, overlay, state)
        batched, tuple_at_a_time, term_space = engines(graph, batch_size)
        ask = f"ASK {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }}"
        assert batched.ask(ask) == tuple_at_a_time.ask(ask) == term_space.ask(ask)
        construct = (
            f"CONSTRUCT {{ ?a <{EX}linked> ?b }} WHERE {{ ?a <{EX}p0> ?b }}"
        )
        vec = {t for t in batched.construct(construct)}
        tup = {t for t in tuple_at_a_time.construct(construct)}
        ref = {t for t in term_space.construct(construct)}
        assert vec == tup == ref


class TestPseudoIdAliasing:
    """Plan-local pseudo ids (negative, for terms the store never saw)
    must never reach a composite-key probe unmasked: ``pc*m + (-1-k)``
    equals ``(pc-1)*m + (m-1-k)``, the real key of a *different*
    (predicate, object) pair, so an unmasked probe emits rows the tuple
    engine never produces.  These graphs are laid out so the collision
    lands on a stored triple — the worst case, not just a miss."""

    def collision_graph(self):
        # Id layout (s, p, o encode order): a=0 r=1 p=2 y=3 z=4, m=5.
        # Probing p with pseudo object -1 gives 2*5-1 == 9 == 1*5+4 — the
        # live POS key of (r, z).  A regression emits (?s=a, ?o=unknown).
        graph = Graph()
        a, r, p, z = (IRI(f"{EX}{n}") for n in ("a", "r", "p", "z"))
        graph.add(Triple(a, r, a))
        graph.add(Triple(a, p, IRI(f"{EX}y")))
        graph.add(Triple(a, r, z))
        graph.triple_index.flush()
        terms = graph.term_dictionary
        assert terms.lookup(p) * len(terms) - 1 == \
            terms.lookup(r) * len(terms) + terms.lookup(z)
        return graph

    def assert_parity(self, graph, query_text):
        query = parse_query(query_text)
        batched, tuple_at_a_time, term_space = engines(graph, 64)
        vec = batched.select(query)
        tup = tuple_at_a_time.select(query)
        ref = term_space.select(query)
        assert vec.rows == tup.rows
        assert sorted(map(repr, vec.rows)) == sorted(map(repr, ref.rows))
        return vec.rows

    def test_values_pseudo_object_probe(self):
        rows = self.assert_parity(
            self.collision_graph(),
            f"SELECT ?s ?o WHERE {{ VALUES ?o {{ <{EX}unknown> }} "
            f"?s <{EX}p> ?o }}",
        )
        assert rows == []

    def test_values_mixed_pseudo_and_real_objects(self):
        # One VALUES row is a live object, one a pseudo id: the real row
        # must still join while the pseudo row is masked, in VALUES order.
        rows = self.assert_parity(
            self.collision_graph(),
            f"SELECT ?s ?o WHERE {{ VALUES ?o {{ <{EX}y> <{EX}unknown> }} "
            f"?s <{EX}p> ?o }}",
        )
        assert len(rows) == 1

    def test_values_pseudo_subject_probe(self):
        rows = self.assert_parity(
            self.collision_graph(),
            f"SELECT ?s ?o WHERE {{ VALUES ?s {{ <{EX}unknown> }} "
            f"?s <{EX}p> ?o }}",
        )
        assert rows == []

    def test_unknown_constant_object(self):
        rows = self.assert_parity(
            self.collision_graph(),
            f"SELECT ?s WHERE {{ ?s <{EX}p> <{EX}unknown> }}",
        )
        assert rows == []

    def test_unknown_predicate_contains_shape(self):
        # Fully bound step with a pseudo-id predicate: the contains mask
        # composite ``s*m + pc`` must not alias the previous subject.
        rows = self.assert_parity(
            self.collision_graph(),
            f"SELECT ?s WHERE {{ ?s <{EX}r> <{EX}a> . "
            f"?s <{EX}unknown> <{EX}z> }}",
        )
        assert rows == []


class TestExpansionCap:
    """Fan-outs past _MAX_EXPANSION fall back to the tuple operator
    instead of one unbounded repeat/tile allocation — same rows out."""

    def fanout_graph(self):
        graph = Graph()
        for i in range(6):
            graph.add(Triple(IRI(f"{EX}n{i}"), IRI(f"{EX}p0"),
                             IRI(f"{EX}n{(i + 1) % 6}")))
            graph.add(Triple(IRI(f"{EX}n{i}"), IRI(f"{EX}p1"),
                             IRI(f"{EX}n{(i + 2) % 6}")))
        graph.triple_index.flush()
        return graph

    def assert_parity(self, query_text):
        graph = self.fanout_graph()
        query = parse_query(query_text)
        batched, tuple_at_a_time, _ref = engines(graph, 64)
        assert batched.select(query).rows == tuple_at_a_time.select(query).rows

    def test_cross_product_step_capped(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_MAX_EXPANSION", 4)
        self.assert_parity(
            f"SELECT ?a ?s ?o WHERE {{ ?a <{EX}p1> ?x . ?s <{EX}p0> ?o }}")

    def test_probe_expansion_capped(self, monkeypatch):
        monkeypatch.setattr(vectorized, "_MAX_EXPANSION", 2)
        self.assert_parity(
            f"SELECT ?a ?b ?c WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c }}")


#: One term of every kind a type test tells apart, malformed numerics too.
KIND_TERMS = [
    IRI(f"{EX}n0"), IRI(f"{EX}n1"), BNode("b0"), BNode("b1"),
    Literal("x"), Literal("x", language="en"), Literal("abc", datatype=XSD_STRING),
    Literal("2020-01-01", datatype=XSD_DATE), literal_from_python(3),
    Literal("2.5", datatype=XSD_DECIMAL), Literal("1e3", datatype=XSD_DOUBLE),
    Literal("abc", datatype=XSD_INTEGER),
]

type_tests = st.sampled_from(["isIRI", "isURI", "isBlank", "isLiteral", "isNumeric"])
type_test_filters = st.recursive(
    type_tests.map(lambda name: f"{name}(?o)"),
    lambda inner: st.one_of(
        inner.map(lambda e: f"!{e}"),
        st.lists(inner, min_size=2, max_size=3).map(lambda es: "(" + " && ".join(es) + ")"),
        st.lists(inner, min_size=2, max_size=3).map(lambda es: "(" + " || ".join(es) + ")"),
    ),
    max_leaves=6,
)
kind_triples = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, len(KIND_TERMS) - 1)),
    min_size=1, max_size=20,
)


class TestTypeTestFilters:
    """Type-test FILTERs over one fully bound column take a kind code per
    distinct id; every other shape keeps the register-program tiers."""

    SHAPES = [
        # bound in every row: the kind-code tier
        f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?o . FILTER(%s) }}",
        # unbound in some rows (OPTIONAL): the register-program tier
        f"SELECT ?s ?o WHERE {{ ?s <{EX}p0> ?x . OPTIONAL {{ ?s <{EX}p1> ?o }} "
        f"FILTER(%s) }}",
    ]

    @staticmethod
    def graph(encoded, settled):
        triples = [Triple(IRI(f"{EX}s{s}"), IRI(f"{EX}p{p}"), KIND_TERMS[o])
                   for s, p, o in encoded]
        if settled:
            return Graph(triples=triples)
        graph = Graph()
        for triple in triples:
            graph.add(triple)
        return graph

    @settings(max_examples=200, deadline=None)
    @given(kind_triples, type_test_filters, st.sampled_from(SHAPES),
           st.booleans(), batch_sizes)
    def test_same_rows_as_the_tuple_engine(self, encoded, constraint, shape,
                                           settled, batch_size):
        query = parse_query(shape % constraint)
        batched, tuple_at_a_time, term_space = engines(
            self.graph(encoded, settled), batch_size)
        vec = batched.select(query)
        assert vec.rows == tuple_at_a_time.select(query).rows
        assert sorted(map(repr, vec.rows)) == \
            sorted(map(repr, term_space.select(query).rows))

    def test_bound_column_skips_the_register_program(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("type tests reached the register program")

        encoded = [(s, 0, o) for s in range(4) for o in range(len(KIND_TERMS))]
        graph = self.graph(encoded, True)
        constraint = "isLiteral(?o) && !isNumeric(?o) || isBlank(?o)"
        query = parse_query(self.SHAPES[0] % constraint)
        expected = Evaluator(graph, compile=True, vectorize=False).select(query).rows
        monkeypatch.setattr(vectorized, "_program_mask", refuse)
        rows = Evaluator(graph, compile=True, vectorize=True).select(query).rows
        assert rows == expected
        assert len(rows) == 4 * 6


class TestBulkLoadStaysBatched:
    """A graph loaded in bulk is queried from sorted runs, every join step
    batched; the rows a remaining fallback shape sends row by row are
    counted."""

    def test_ntriples_cube_disaggregates_without_fallback_rows(self, mini_kg):
        text = mini_kg.graph.to_ntriples()
        graph = Graph.from_ntriples(io.StringIO(text))
        endpoint = Endpoint(graph)
        # The bootstrap and every exploration step run batched throughout.
        before = endpoint.stats.snapshot()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        session = ExplorationSession(endpoint, vgraph)
        session.synthesize("Germany", "2014")
        session.choose(0)
        refined = session.apply(session.refinements("disaggregate")[0])
        after = endpoint.stats.snapshot()
        assert len(refined) > 0
        assert after.batched_executions > before.batched_executions
        assert after.fallback_batch_rows == before.fallback_batch_rows

    def test_fallback_rows_are_counted(self):
        # The first OPTIONAL binds ?c in one of two rows, so the second
        # probes a mixed-boundness column, which runs row by row; the
        # counter must show it.
        graph = build_graph([(0, 0, 1), (1, 0, 2), (2, 1, 0)], [], "flushed")
        query = (f"SELECT ?a ?c ?d WHERE {{ ?a <{EX}p0> ?b . "
                 f"OPTIONAL {{ ?b <{EX}p1> ?c }} OPTIONAL {{ ?c <{EX}value> ?d }} }}")
        endpoint = Endpoint(graph)
        assert endpoint.select(query) == \
            Evaluator(graph, vectorize=False).select(query)
        assert endpoint.stats.fallback_batch_rows == 2
