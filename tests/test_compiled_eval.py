"""Tests for compiled id-space BGP execution, batching, and the catalog.

Covers the equivalence property (compiled plans return exactly what the
term-space interpreter returns), the compile-time short-circuits, the
cooperative deadline inside the compiled join loop, a result cache shared
across graphs, the incremental statistics catalog, and REOLAP candidate
validation on the compiled engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SynthesisReport, VirtualSchemaGraph, reolap
from repro.core.reolap import _validate_candidates
from repro.datasets import generate_eurostat
from repro.errors import QueryEvaluationError, QueryTimeoutError
from repro.qb import OBSERVATION_CLASS
from repro.rdf import IRI, Triple, Variable, literal_from_python
from repro.serving import QueryCache
from repro.sparql import (
    Evaluator,
    compile_where,
    explain,
    parse_query,
)
from repro.store import Graph, PredicateStats

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


# -- equivalence property ---------------------------------------------------

subject_ids = st.integers(min_value=0, max_value=5)
predicate_ids = st.integers(min_value=0, max_value=3)
object_ids = st.integers(min_value=0, max_value=5)

graph_triples = st.lists(
    st.tuples(subject_ids, predicate_ids, object_ids), min_size=1, max_size=40
)

bgp_shapes = st.tuples(
    predicate_ids, predicate_ids,
    st.sampled_from(["chain", "fork", "loop", "anchored", "filtered", "self"]),
)


# Random BGP(+FILTER) ASK bodies.  Positions draw from a three-variable
# pool (so variables repeat within and across patterns) or from constants
# that include one node and one predicate no graph ever stores.
_ask_variables = st.sampled_from(["?a", "?b", "?c"])
_ask_nodes = st.sampled_from([f"<{EX}n{i}>" for i in range(6)] + [f"<{EX}absent>"])
_ask_predicates = st.sampled_from(
    [f"<{EX}p{i}>" for i in range(4)] + [f"<{EX}value>", f"<{EX}absent-p>"]
)
_ask_patterns = st.tuples(
    st.one_of(_ask_variables, _ask_variables, _ask_nodes),
    st.one_of(_ask_predicates, _ask_predicates, _ask_variables),
    st.one_of(_ask_variables, _ask_variables, _ask_nodes),
).map(" ".join)
_ask_filters = st.sampled_from([
    "", "", "", "FILTER(?a != ?b)", f"FILTER(?a = <{EX}n1>)", "FILTER(?c >= 20)",
    f"FILTER(?a != <{EX}n0>)", f"FILTER(?b != <{EX}absent>)",
])
ask_bodies = st.tuples(st.lists(_ask_patterns, min_size=1, max_size=3), _ask_filters)
# Dense enough that a fair share of the random ASKs hold.
dense_graph_triples = st.lists(
    st.tuples(subject_ids, predicate_ids, object_ids), min_size=20, max_size=60
)


def build_graph(encoded):
    graph = Graph()
    for s, p, o in encoded:
        graph.add(Triple(iri(f"n{s}"), iri(f"p{p}"), iri(f"n{o}")))
    for s in {s for s, _p, _o in encoded}:
        graph.add(Triple(iri(f"n{s}"), iri("value"), literal_from_python(s * 10)))
    return graph


def bgp_query(p1, p2, shape):
    if shape == "chain":
        body = f"?a <{EX}p{p1}> ?b . ?b <{EX}p{p2}> ?c ."
    elif shape == "fork":
        body = f"?a <{EX}p{p1}> ?b . ?a <{EX}p{p2}> ?c ."
    elif shape == "loop":
        body = f"?a <{EX}p{p1}> ?b . ?b <{EX}p{p2}> ?a ."
    elif shape == "anchored":
        body = f"?a <{EX}p{p1}> <{EX}n2> . ?a <{EX}p{p2}> ?b . ?a <{EX}value> ?c ."
    elif shape == "self":
        # Repeated variable inside one pattern: must keep ?a = ?a equality.
        body = f"?a <{EX}p{p1}> ?a . ?a <{EX}p{p2}> ?b ."
    else:  # filtered
        body = (
            f"?a <{EX}p{p1}> ?b . ?a <{EX}value> ?c . "
            f"FILTER(?c >= 20) FILTER(?a != ?b)"
        )
    return f"SELECT * WHERE {{ {body} }}"


class TestCompiledEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(graph_triples, bgp_shapes)
    def test_compiled_matches_term_space(self, encoded, shape):
        graph = build_graph(encoded)
        query = parse_query(bgp_query(*shape))
        compiled = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert compiled == legacy

    @settings(max_examples=40, deadline=None)
    @given(graph_triples, bgp_shapes)
    def test_compiled_matches_without_optimizer(self, encoded, shape):
        graph = build_graph(encoded)
        query = parse_query(bgp_query(*shape))
        compiled = Evaluator(graph, optimize=False, compile=True).select(query)
        legacy = Evaluator(graph, optimize=False, compile=False).select(query)
        assert compiled == legacy

    def test_values_undef_rows(self):
        graph = build_graph([(0, 0, 1), (1, 0, 2)])
        query = parse_query(
            f"SELECT * WHERE {{ VALUES (?a) {{ (<{EX}n0>) (UNDEF) }} "
            f"?a <{EX}p0> ?b . }}"
        )
        compiled = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert compiled == legacy
        assert len(compiled) == 3  # bound row matches once, UNDEF row twice

    def test_ask_agreement(self):
        graph = build_graph([(0, 0, 1), (1, 1, 2)])
        hit = f"ASK {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}"
        miss = f"ASK {{ ?a <{EX}p1> ?b . ?b <{EX}p0> ?c . }}"
        for text in (hit, miss):
            query = parse_query(text)
            assert (
                Evaluator(graph, compile=True).ask(query)
                == Evaluator(graph, compile=False).ask(query)
            )

    @settings(max_examples=150, deadline=None)
    @given(dense_graph_triples, ask_bodies)
    def test_bgp_ask_agrees_across_engines_and_batch(self, encoded, body):
        """The compiled ASK, the interpreter's ASK and the batched engine's
        SELECT over the same WHERE clause agree — repeated variables and
        never-stored constants included."""
        patterns, constraint = body
        graph = build_graph(encoded)
        where = " . ".join(patterns) + " . " + constraint
        query = parse_query(f"ASK {{ {where} }}")
        compiled = Evaluator(graph, compile=True).ask(query)
        assert compiled == Evaluator(graph, compile=False).ask(query)
        select = parse_query(f"SELECT * WHERE {{ {where} }}")
        batched = Evaluator(graph, compile=True, vectorize=True, batch_size=2)
        assert (len(batched.select(select)) > 0) == compiled


# -- unified operator pipeline (OPTIONAL / UNION / VALUES / paths / BIND /
#    EXISTS / MINUS / subqueries) -------------------------------------------

OPERATOR_SHAPES = [
    "optional", "optional-filter", "union", "union-partial", "values",
    "values-undef", "path-plus", "path-star", "path-seq", "path-alt",
    "path-inv", "path-anchored", "path-self", "mixed",
    # The four formerly-declining shapes, incl. error-semantics rows.
    "bind", "bind-arith", "bind-error", "bind-unbound",
    "exists", "not-exists", "exists-error",
    "minus", "minus-disjoint",
    "subquery", "subquery-agg", "mixed-retired",
]

operator_shapes = st.sampled_from(OPERATOR_SHAPES)


def operator_query(p1, p2, shape):
    P1, P2 = f"<{EX}p{p1}>", f"<{EX}p{p2}>"
    if shape == "optional":
        body = f"?a {P1} ?b . OPTIONAL {{ ?b {P2} ?c . }}"
    elif shape == "optional-filter":
        body = f"?a {P1} ?b . OPTIONAL {{ ?b {P2} ?c . FILTER(?c != ?a) }}"
    elif shape == "union":
        body = f"{{ ?a {P1} ?b . }} UNION {{ ?a {P2} ?b . }}"
    elif shape == "union-partial":
        # Branches bind disjoint variables: rows carry unbound registers.
        body = f"?a {P1} ?b . {{ ?b {P1} ?c . }} UNION {{ ?b {P2} ?d . }}"
    elif shape == "values":
        body = f"VALUES ?a {{ <{EX}n0> <{EX}n3> <{EX}unseen> }} ?a {P1} ?b ."
    elif shape == "values-undef":
        body = (
            f"VALUES (?a ?b) {{ (<{EX}n1> UNDEF) (UNDEF <{EX}n2>) }} "
            f"?a {P1} ?b ."
        )
    elif shape == "path-plus":
        body = f"?a {P1}+ ?b ."
    elif shape == "path-star":
        body = f"?a {P1}* ?b ."
    elif shape == "path-seq":
        body = f"?a {P1}/{P2} ?b ."
    elif shape == "path-alt":
        body = f"?a ({P1}|{P2}) ?b ."
    elif shape == "path-inv":
        body = f"?a ^{P1} ?b ."
    elif shape == "path-anchored":
        body = f"<{EX}n2> {P1}+ ?b . ?b {P2} ?c ."
    elif shape == "path-self":
        # Same variable at both path ends: only cycle members survive.
        body = f"?x {P1}+ ?x ."
    elif shape == "mixed":  # every classic operator in one body
        body = (
            f"?a {P1} ?b . OPTIONAL {{ ?b {P2} ?c . }} "
            f"{{ ?b {P1} ?d . }} UNION {{ ?b {P2} ?d . }} "
            f"FILTER(?a != ?b)"
        )
    elif shape == "bind":
        body = f"?a {P1} ?b . BIND(?b AS ?w)"
    elif shape == "bind-arith":
        # Computed numeric register, then a filter over the computed value.
        body = f"?a <{EX}value> ?v . BIND(?v * 3 AS ?w) FILTER(?w > 30)"
    elif shape == "bind-error":
        # IRI + 1 is a type error: ?w must stay unbound, rows survive.
        body = f"?a {P1} ?b . BIND(?b + 1 AS ?w)"
    elif shape == "bind-unbound":
        # ?c unbound on OPTIONAL misses: erroring BIND leaves ?w unbound.
        body = f"?a {P1} ?b . OPTIONAL {{ ?b {P2} ?c . }} BIND(?c AS ?w)"
    elif shape == "exists":
        body = f"?a {P1} ?b . FILTER EXISTS {{ ?b {P2} ?c . }}"
    elif shape == "not-exists":
        body = f"?a {P1} ?b . FILTER NOT EXISTS {{ ?b {P2} ?c . }}"
    elif shape == "exists-error":
        # The inner filter errors on IRIs (?c > 0): EXISTS never matches.
        body = f"?a {P1} ?b . FILTER EXISTS {{ ?b {P2} ?c . FILTER(?c > 0) }}"
    elif shape == "minus":
        body = f"?a {P1} ?b . MINUS {{ ?b {P2} ?c . }}"
    elif shape == "minus-disjoint":
        # No shared variables: MINUS removes nothing, per spec.
        body = f"?a {P1} ?b . MINUS {{ ?x {P2} ?y . }}"
    elif shape == "subquery":
        body = f"{{ SELECT ?b WHERE {{ ?x {P2} ?b . }} }} ?a {P1} ?b ."
    elif shape == "subquery-agg":
        # Aggregate results are runtime-minted ids (counts are terms the
        # store never stored) — they must decode at the boundary.
        body = (
            f"?a <{EX}value> ?v . "
            f"{{ SELECT ?a (COUNT(*) AS ?n) WHERE {{ ?a {P1} ?x . }} "
            f"GROUP BY ?a }}"
        )
    else:  # mixed-retired: all four formerly-declining shapes in one body
        body = (
            f"?a {P1} ?b . BIND(?b AS ?w) "
            f"FILTER NOT EXISTS {{ ?b {P2} ?c . }} "
            f"MINUS {{ ?w {P2} ?y . }} "
            f"{{ SELECT ?a WHERE {{ ?a <{EX}value> ?v . }} }}"
        )
    return f"SELECT * WHERE {{ {body} }}"


class TestOperatorEquivalence:
    """Hypothesis parity for the operator layer: every OPTIONAL / UNION /
    VALUES / property-path shape must answer exactly like the term-space
    interpreter, with and without the join-order optimizer."""

    @settings(max_examples=100, deadline=None)
    @given(graph_triples, predicate_ids, predicate_ids, operator_shapes)
    def test_compiled_matches_term_space(self, encoded, p1, p2, shape):
        graph = build_graph(encoded)
        query = parse_query(operator_query(p1, p2, shape))
        compiled = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert compiled == legacy

    @settings(max_examples=40, deadline=None)
    @given(graph_triples, predicate_ids, predicate_ids, operator_shapes)
    def test_compiled_matches_without_optimizer(self, encoded, p1, p2, shape):
        graph = build_graph(encoded)
        query = parse_query(operator_query(p1, p2, shape))
        compiled = Evaluator(graph, optimize=False, compile=True).select(query)
        legacy = Evaluator(graph, optimize=False, compile=False).select(query)
        assert compiled == legacy

    def test_shapes_actually_compile(self):
        """Every shape the parity property runs must take the compiled
        engine — otherwise the property compares legacy to legacy."""
        from repro.sparql.operators import compile_where

        graph = build_graph([(0, 0, 1), (1, 1, 2), (2, 0, 3)])
        for shape in OPERATOR_SHAPES:
            query = parse_query(operator_query(0, 1, shape))
            plan, reason = compile_where(graph, query.where)
            assert plan is not None, (shape, reason)

    def test_ask_agreement_on_operator_shapes(self):
        graph = build_graph([(0, 0, 1), (1, 1, 2)])
        for shape in ("optional", "union", "values", "path-plus", "mixed"):
            query = parse_query(operator_query(0, 1, shape).replace(
                "SELECT * WHERE", "ASK", 1))
            assert (
                Evaluator(graph, compile=True).ask(query)
                == Evaluator(graph, compile=False).ask(query)
            )


class TestBindRebindErrors:
    """BIND over an in-scope variable is a query error in every engine —
    raised even when the group has zero solutions, because the
    interpreter checks scope the moment the group is evaluated."""

    def _engines(self, graph):
        return (
            Evaluator(graph, compile=True, vectorize=True, batch_size=2),
            Evaluator(graph, compile=True, vectorize=False),
            Evaluator(graph, compile=False),
        )

    def test_static_rebind_raises(self):
        # ?b is bound by the group's own pattern: detected at lowering.
        graph = build_graph([(0, 0, 1)])
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . BIND(<{EX}x> AS ?b) }}"
        )
        for evaluator in self._engines(graph):
            with pytest.raises(QueryEvaluationError):
                evaluator.select(query)

    def test_static_rebind_raises_with_zero_solutions(self):
        graph = build_graph([(0, 0, 1)])
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p1> ?b . BIND(<{EX}x> AS ?b) }}"
        )
        for evaluator in self._engines(graph):
            with pytest.raises(QueryEvaluationError):
                evaluator.select(query)

    def test_row_dependent_rebind_raises(self):
        # ?b enters the OPTIONAL group bound by the incoming row — a
        # per-row property, caught by the group's entry check.
        graph = build_graph([(0, 0, 1), (0, 1, 2)])
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . "
            f"OPTIONAL {{ ?a <{EX}p1> ?c . BIND(<{EX}x> AS ?b) }} }}"
        )
        for evaluator in self._engines(graph):
            with pytest.raises(QueryEvaluationError):
                evaluator.select(query)

    def test_row_dependent_rebind_raises_on_empty_inner_match(self):
        # The inner pattern matches nothing, but the rebind still raises:
        # both engines run the group's entry check on the incoming rows
        # before any of its patterns.
        graph = build_graph([(0, 0, 1)])
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . "
            f"OPTIONAL {{ ?a <{EX}p1> ?c . BIND(<{EX}x> AS ?b) }} }}"
        )
        for evaluator in self._engines(graph):
            with pytest.raises(QueryEvaluationError):
                evaluator.select(query)

    def test_fresh_variable_is_not_a_rebind(self):
        graph = build_graph([(0, 0, 1)])
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . BIND(<{EX}x> AS ?w) }}"
        )
        for evaluator in self._engines(graph):
            assert len(evaluator.select(query)) == 1


class TestStaticFilterPlacement:
    """Each group's FILTERs are placed once, at lowering, against the
    variables every incoming row binds.  The interpreter places them per
    row, earlier for rows that bind more; a later filter keeps the same
    rows, except in two shapes, which decline to the interpreter."""

    GRAPH = [(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 3, 4), (5, 0, 1), (5, 2, 3)]

    def _assert_engines_agree(self, query):
        graph = build_graph(self.GRAPH)
        reference = Evaluator(graph, compile=False).select(query)
        for evaluator in (Evaluator(graph, vectorize=True, batch_size=2),
                          Evaluator(graph, vectorize=False)):
            assert evaluator.select(query).rows == reference.rows
        return compile_where(graph, query.where)[1]

    def test_row_dependent_place_compiles(self):
        # ?c enters the second OPTIONAL bound in some rows only; moving
        # the filter to the group's end prunes the same rows.
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . OPTIONAL {{ ?a <{EX}p1> ?c }} "
            f"OPTIONAL {{ ?a <{EX}p2> ?d . FILTER(?c != ?d) }} }}"
        )
        assert self._assert_engines_agree(query) is None

    def test_undef_cell_bound_later_declines(self):
        # The interpreter reads ?v unbound right after the step; at the
        # group's end the inner OPTIONAL has bound it.
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . OPTIONAL {{ ?a <{EX}p1> ?c }} "
            f"OPTIONAL {{ VALUES ?v {{ UNDEF }} ?a <{EX}p2> ?d . "
            f"OPTIONAL {{ ?a <{EX}p3> ?v }} FILTER(BOUND(?c) && !BOUND(?v)) }} }}"
        )
        assert self._assert_engines_agree(query) == "filter-placement"

    def test_nested_rebind_behind_filter_declines(self):
        # The interpreter drops every row binding ?c before the inner
        # OPTIONAL, whose BIND would raise on such a row.
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . OPTIONAL {{ ?a <{EX}p1> ?c }} "
            f"OPTIONAL {{ ?a <{EX}p2> ?d . FILTER(?c = <{EX}n9>) "
            f"OPTIONAL {{ ?a <{EX}p3> ?e . BIND(<{EX}x> AS ?c) }} }} }}"
        )
        assert self._assert_engines_agree(query) == "filter-placement"


class TestPathClosureDeadline:
    """Satellite regression: a long ``broader+`` chain must hit the
    cooperative deadline *between frontier hops* in both engines."""

    def _chain_graph(self, length=5000):
        graph = Graph()
        broader = iri("broader")
        graph.add_all(Triple(iri(f"c{i}"), broader, iri(f"c{i + 1}"))
                      for i in range(length))
        return graph

    @pytest.mark.parametrize("compile_flag", [True, False])
    def test_closure_observes_deadline(self, compile_flag):
        graph = self._chain_graph()
        query = parse_query(
            f"SELECT * WHERE {{ <{EX}c0> <{EX}broader>+ ?t . }}"
        )
        evaluator = Evaluator(graph, compile=compile_flag)
        with pytest.raises(QueryTimeoutError):
            evaluator.select(query, timeout=1e-6)
        # A sane budget still answers, and both engines agree on it.
        full = evaluator.select(query)
        assert len(full) == 5000


# -- repeated variables within one pattern ----------------------------------

class TestRepeatedVariablePatterns:
    """A pattern like ``?x <p> ?x`` carries an intra-pattern equality
    constraint: the repeated occurrence binds a scratch register and the
    step's equality pair keeps only rows where both positions agree — no
    term-space fallback."""

    def _graph(self):
        # One genuine self-loop (n3 p0 n3) among ordinary edges; no
        # self-loop at all for p1.
        return build_graph([(0, 0, 1), (1, 0, 2), (3, 0, 3), (2, 1, 4)])

    def test_lowers_with_scratch_register(self):
        graph = self._graph()
        loop = parse_query(f"SELECT * WHERE {{ ?x <{EX}p0> ?x . }}")
        plan, reason = compile_where(graph, loop.where)
        assert reason is None
        assert explain(graph, loop).engine == "compiled"
        # One canonical slot for ?x, one scratch for the repetition.
        assert plan.num_slots == 1
        assert plan.num_registers == 2
        # A variable repeated across *different* patterns needs no scratch.
        chain = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?a . }}"
        )
        chained, _reason = compile_where(graph, chain.where)
        assert chained.num_registers == 2

    def test_select_keeps_equality(self):
        graph = self._graph()
        query = parse_query(f"SELECT ?x WHERE {{ ?x <{EX}p0> ?x . }}")
        compiled = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert compiled == legacy
        assert [row for row in compiled.rows] == [(iri("n3"),)]

    def test_ask_keeps_equality(self):
        graph = self._graph()
        has_loop = parse_query(f"ASK {{ ?z <{EX}p0> ?z . }}")
        no_loop = parse_query(f"ASK {{ ?z <{EX}p1> ?z . }}")
        for mode in (True, False):
            assert Evaluator(graph, compile=mode).ask(has_loop) is True
            assert Evaluator(graph, compile=mode).ask(no_loop) is False

    def test_batch_compiles_self_loops(self):
        # The batched engine applies the equality pair inside the driving
        # scan: at every batch size only the genuine self-loop survives,
        # and no row takes the per-row fallback.
        from repro.store import Endpoint

        graph = self._graph()
        graph.triple_index.flush()  # pure runs: the driving scan engages
        query = f"SELECT ?z WHERE {{ ?z <{EX}p0> ?z . }}"
        expected = Evaluator(graph, compile=True, vectorize=False).select(query)
        assert expected.rows == [(iri("n3"),)]
        for batch_size in (1, 2, 64):
            endpoint = Endpoint(graph, batch_size=batch_size)
            assert endpoint.select(query) == expected
            assert endpoint.ask(f"ASK {{ ?z <{EX}p1> ?z . }}") is False
            assert endpoint.stats.batched_executions == 1
            assert endpoint.stats.fallback_batch_rows == 0


# -- compile-time behaviour -------------------------------------------------

class TestPlanCompilation:
    def test_unseen_constant_short_circuits(self):
        graph = build_graph([(0, 0, 1)])
        query = parse_query(f"SELECT * WHERE {{ ?a <{EX}never-stored> ?b . }}")
        plan, reason = compile_where(graph, query.where)
        assert reason is None and plan.empty
        assert len(Evaluator(graph).select(query)) == 0
        for mode in (True, False):
            ask = Evaluator(graph, compile=mode).ask
            assert ask(f"ASK {{ ?a <{EX}never-stored> ?b . }}") is False

    def test_property_path_compiles(self):
        from repro.store import Endpoint

        graph = build_graph([(0, 0, 1)])
        query = parse_query(f"SELECT * WHERE {{ ?a <{EX}p0>+ ?b . }}")
        endpoint = Endpoint(graph)
        assert endpoint.ask(f"ASK {{ ?a <{EX}p0>+ ?b . }}") is True
        compiled = Evaluator(graph, compile=True).select(query)
        assert compiled == Evaluator(graph, compile=False).select(query)
        assert len(compiled) == 1
        assert explain(graph, query).engine == "compiled"

    def test_shared_cache_keeps_graphs_apart(self):
        # Two graphs with *coinciding epochs* behind one shared cache:
        # without a graph-identity key component, B would silently answer
        # from A's cached result.
        from repro.store import Endpoint

        graph_a = Graph(triples=[Triple(iri("a-subj"), iri("p0"), iri("a-obj"))])
        graph_b = Graph(triples=[Triple(iri("b-subj"), iri("p0"), iri("b-obj"))])
        assert graph_a.epoch == graph_b.epoch
        assert graph_a.uid != graph_b.uid
        cache = QueryCache()
        text = f"SELECT * WHERE {{ ?s <{EX}p0> ?o . }}"
        first = Endpoint(graph_a, cache=cache).select(text)
        second = Endpoint(graph_b, cache=cache).select(text)

        def bindings(result):
            return [dict(zip(result.variables, row)) for row in result.rows]

        s, o = Variable("s"), Variable("o")
        assert bindings(first) == [{s: iri("a-subj"), o: iri("a-obj")}]
        assert bindings(second) == [{s: iri("b-subj"), o: iri("b-obj")}]

    def test_compiled_join_observes_deadline(self):
        graph = Graph()
        graph.add_all(Triple(iri(f"a{i}"), iri("edge"), iri(f"b{j}"))
                      for i in range(60) for j in range(60))
        # Two disconnected patterns: a 3600^2-row cartesian product the
        # deadline must interrupt mid-join.
        query = parse_query(
            f"SELECT * WHERE {{ ?a <{EX}edge> ?b . ?c <{EX}edge> ?d . }}"
        )
        evaluator = Evaluator(graph, compile=True)
        with pytest.raises(QueryTimeoutError):
            evaluator.select(query, timeout=1e-4)


# -- statistics catalog -----------------------------------------------------

mutations = st.lists(
    st.tuples(st.booleans(), subject_ids, predicate_ids, object_ids),
    min_size=1, max_size=60,
)


class TestStatisticsCatalog:
    @settings(max_examples=60, deadline=None)
    @given(mutations)
    def test_counters_match_brute_force(self, ops):
        graph = Graph()
        for add, s, p, o in ops:
            triple = Triple(iri(f"n{s}"), iri(f"p{p}"), iri(f"n{o}"))
            if add:
                graph.add(triple)
            else:
                graph.remove(triple)
        triples = list(graph.triples())
        for p in {t.p for t in triples} | {iri("p0")}:
            expected = PredicateStats(
                triples=sum(1 for t in triples if t.p == p),
                distinct_subjects=len({t.s for t in triples if t.p == p}),
                distinct_objects=len({t.o for t in triples if t.p == p}),
            )
            assert graph.predicate_stats(p) == expected
            assert graph.predicate_cardinality(p) == expected.triples
            assert graph.count(None, p, None) == expected.triples
        for s in {t.s for t in triples}:
            assert graph.count(s, None, None) == sum(1 for t in triples if t.s == s)
        for o in {t.o for t in triples}:
            assert graph.count(None, None, o) == sum(1 for t in triples if t.o == o)

    def test_fanouts(self):
        graph = build_graph([(0, 0, 1), (0, 0, 2), (1, 0, 1)])
        stats = graph.predicate_stats(iri("p0"))
        assert stats == PredicateStats(3, 2, 2)
        assert stats.subject_fanout == pytest.approx(1.5)
        assert stats.object_fanout == pytest.approx(1.5)


class TestBatchedAsk:
    def test_verdicts_match_individual_asks(self):
        graph = build_graph([(0, 0, 1), (1, 1, 2), (2, 2, 3), (0, 1, 3)])
        texts = [
            f"ASK {{ ?a <{EX}p0> ?b . ?b <{EX}p1> ?c . }}",
            f"ASK {{ ?a <{EX}p0> ?b . ?b <{EX}p2> ?c . }}",
            f"ASK {{ ?a <{EX}p2> ?b . ?b <{EX}p0> ?c . }}",
            f"ASK {{ ?a <{EX}unseen> ?b . }}",
        ]
        from repro.store import Endpoint

        endpoint = Endpoint(graph)
        batched = endpoint.ask_batch(texts)
        assert batched == [endpoint.ask(text) for text in texts]


# -- REOLAP validation -----------------------------------------------------

class TestReolapValidation:
    @pytest.fixture(scope="class")
    def setup(self):
        kg = generate_eurostat(n_observations=400, scale=0.3, seed=11)
        endpoint = kg.endpoint()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        return kg, endpoint, vgraph

    def test_validation_sends_one_ask_per_candidate(self, setup):
        _kg, endpoint, vgraph = setup
        # "Asia" is ambiguous in this synthetic cube: it names members at
        # two levels, so REOLAP emits two candidates to validate.
        unvalidated = reolap(endpoint, vgraph, ("Asia",), validate=False)
        assert len(unvalidated) > 1
        endpoint.stats.reset()
        report = SynthesisReport()
        validated = _validate_candidates(endpoint, unvalidated, report)
        assert endpoint.stats.ask_queries == len(unvalidated)
        assert endpoint.stats.select_queries == 0
        assert len(endpoint.stats.latencies) == len(unvalidated)  # one call each
        assert validated  # the cube contains observations for the members
        assert len(validated) + report.candidates_empty == len(unvalidated)

    def test_compiled_validation_equals_interpreter(self, setup):
        kg, endpoint, vgraph = setup
        compiled = reolap(endpoint, vgraph, ("Asia",), validate=True)
        interpreted = reolap(kg.endpoint(compile=False), vgraph, ("Asia",),
                             validate=True)
        assert [q.to_select().to_sparql() for q in compiled] == [
            q.to_select().to_sparql() for q in interpreted
        ]
