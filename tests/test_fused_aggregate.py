"""Tests for the fused id-space aggregation pipeline.

Covers the equivalence property (fused plans return exactly what the
term-space ``_aggregate`` path returns, including DISTINCT aggregates,
HAVING, unbound group keys, empty groups, and OFFSET/LIMIT), the
qualifying rules (non-qualifying shapes decline to the fallback instead of
mis-answering), the endpoint's fused/fallback
counters, the cooperative deadline inside the accumulation loop, the
single-pass MIN/MAX replacement in the term-space path, and the bounded
top-k ordering both engines now share.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryTimeoutError
from repro.rdf import IRI, Literal, Triple, literal_from_python
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER
from repro.sparql import Evaluator, compile_aggregate, parse_query
from repro.sparql.aggregator import AggregatePlan, compile_aggregate_ex
from repro.store import Endpoint, Graph
from repro.store.endpoint import COUNTERS

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


def build_cube(rows):
    """A tiny cube from encoded rows: (obs, dim member, value, has value).

    Observations may repeat with different dims/values (fan-out through the
    join) and may lack the measure entirely (unbound aggregate argument).
    """
    graph = Graph()
    for obs, dim, value, has_value in rows:
        subject = iri(f"obs{obs}")
        graph.add(Triple(subject, iri("dim"), iri(f"d{dim}")))
        if has_value:
            graph.add(Triple(subject, iri("val"), literal_from_python(value)))
    return graph


cube_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-5, max_value=9),
        st.booleans(),
    ),
    min_size=0,
    max_size=30,
)

BODY = f"?o <{EX}dim> ?d . ?o <{EX}val> ?v ."

AGG_QUERIES = [
    # Core streaming accumulators over one group key.
    f"SELECT ?d (SUM(?v) AS ?s) (COUNT(*) AS ?c) WHERE {{ {BODY} }} GROUP BY ?d",
    f"SELECT ?d (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
    f"WHERE {{ {BODY} }} GROUP BY ?d",
    f"SELECT ?d (SAMPLE(?v) AS ?any) (GROUP_CONCAT(?v) AS ?g) "
    f"WHERE {{ {BODY} }} GROUP BY ?d",
    # DISTINCT variants (id-set dedup must equal term dedup).
    f"SELECT ?d (COUNT(DISTINCT ?v) AS ?c) (SUM(DISTINCT ?v) AS ?s) "
    f"WHERE {{ {BODY} }} GROUP BY ?d",
    f"SELECT ?d (AVG(DISTINCT ?v) AS ?a) (GROUP_CONCAT(DISTINCT ?v) AS ?g) "
    f"WHERE {{ {BODY} }} GROUP BY ?d",
    # Aggregating the grouped dim itself; COUNT of a sometimes-unbound var.
    f"SELECT ?d (COUNT(?v) AS ?c) WHERE {{ ?o <{EX}dim> ?d . "
    f"OPTIONAL {{ ?o <{EX}missing> ?v . }} }} GROUP BY ?d",
    # HAVING — aggregate-only and mixed arithmetic (general program path).
    f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ {BODY} }} GROUP BY ?d "
    f"HAVING (COUNT(*) > 1)",
    f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d "
    f"HAVING ((SUM(?v) + COUNT(*)) > 3)",
    # Unbound group key: ?nowhere is bound by no pattern.
    f"SELECT ?nowhere (COUNT(*) AS ?c) WHERE {{ {BODY} }} GROUP BY ?nowhere",
    # No GROUP BY: exactly one group, even over zero solutions.
    f"SELECT (COUNT(*) AS ?c) (SUM(?v) AS ?s) WHERE {{ {BODY} }}",
    f"SELECT (MIN(?v) AS ?lo) WHERE {{ {BODY} }}",
    # Anchored on a member that may not exist (empty-plan short-circuit).
    f"SELECT (COUNT(*) AS ?c) WHERE {{ ?o <{EX}dim> <{EX}d9> . "
    f"?o <{EX}val> ?v . }}",
    # FILTER pushdown into the id-space join.
    f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} FILTER(?v >= 10) }} GROUP BY ?d",
    # ORDER BY / LIMIT / OFFSET over aggregate outputs (bounded top-k).
    f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d "
    f"ORDER BY DESC(?s) ?d LIMIT 2",
    f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ {BODY} }} GROUP BY ?d "
    f"ORDER BY ?c ?d LIMIT 2 OFFSET 1",
    # SELECT DISTINCT over grouped rows.
    f"SELECT DISTINCT (COUNT(*) AS ?c) WHERE {{ {BODY} }} GROUP BY ?d",
    # Two group keys.
    f"SELECT ?d ?v (COUNT(*) AS ?c) WHERE {{ {BODY} }} GROUP BY ?d ?v",
    # Expressions over aggregates: arithmetic, and a function call (the
    # term-space path resolves its aggregates before evaluating it).
    f"SELECT ?d ((SUM(?v) * 2) AS ?x) WHERE {{ {BODY} }} GROUP BY ?d",
    f"SELECT ?d (IF(SUM(?v) > 2, MIN(?v), MAX(?v)) AS ?x) WHERE {{ {BODY} }} "
    f"GROUP BY ?d",
]


class TestFusedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(cube_rows, st.sampled_from(AGG_QUERIES))
    def test_fused_matches_term_space(self, rows, text):
        graph = build_cube(rows)
        query = parse_query(text)
        fused = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert fused == legacy
        # Exact row order matters for OFFSET/LIMIT without full ordering;
        # both engines stream groups in first-occurrence order.
        assert fused.rows == legacy.rows

    @settings(max_examples=30, deadline=None)
    @given(cube_rows, st.sampled_from(AGG_QUERIES))
    def test_fused_matches_without_optimizer(self, rows, text):
        graph = build_cube(rows)
        query = parse_query(text)
        fused = Evaluator(graph, optimize=False, compile=True).select(query)
        legacy = Evaluator(graph, optimize=False, compile=False).select(query)
        assert fused == legacy

    def test_qualifying_queries_actually_fuse(self):
        """Every shape the equivalence property runs must take the fused
        path — otherwise the property would vacuously compare legacy to
        legacy.  Since the unified operator layer, that includes the
        OPTIONAL COUNT(?v) shape that used to decline."""
        graph = build_cube([(0, 0, 1, True), (1, 1, 2, True)])
        for text in AGG_QUERIES:
            assert compile_aggregate(graph, parse_query(text)) is not None, text

    def test_sum_error_semantics_match(self):
        """A non-numeric value makes SUM error → projected as None."""
        graph = Graph()
        graph.add(Triple(iri("obs0"), iri("dim"), iri("d0")))
        graph.add(Triple(iri("obs0"), iri("val"), Literal("not-a-number")))
        graph.add(Triple(iri("obs1"), iri("dim"), iri("d0")))
        graph.add(Triple(iri("obs1"), iri("val"), literal_from_python(3)))
        text = f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d"
        fused = Evaluator(graph, compile=True).select(text)
        legacy = Evaluator(graph, compile=False).select(text)
        assert fused == legacy
        assert fused.rows[0][1] is None

    def test_group_concat_blank_node_errors(self):
        from repro.rdf import BNode

        graph = Graph()
        graph.add(Triple(iri("obs0"), iri("dim"), iri("d0")))
        graph.add(Triple(iri("obs0"), iri("val2"), BNode("b0")))
        text = (
            f"SELECT ?d (GROUP_CONCAT(?v) AS ?g) WHERE "
            f"{{ ?o <{EX}dim> ?d . ?o <{EX}val2> ?v . }} GROUP BY ?d"
        )
        fused = Evaluator(graph, compile=True).select(text)
        legacy = Evaluator(graph, compile=False).select(text)
        assert fused == legacy
        assert fused.rows[0][1] is None

    def test_never_ready_filter_drops_all_rows(self):
        """A FILTER over a variable no pattern binds errors every row."""
        graph = build_cube([(0, 0, 1, True), (1, 1, 2, True)])
        text = (
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ {BODY} "
            f"FILTER(?nowhere > 1) }} GROUP BY ?d"
        )
        assert compile_aggregate(graph, parse_query(text)) is not None
        fused = Evaluator(graph, compile=True).select(text)
        legacy = Evaluator(graph, compile=False).select(text)
        assert fused == legacy
        assert len(fused) == 0


class TestNewlyFusedShapes:
    """Shapes the old BGP-only fuser declined now ride the unified
    operator pipeline: they must compile AND match the term-space path."""

    def _check_fuses(self, graph, text):
        query = parse_query(text)
        assert compile_aggregate(graph, query) is not None
        fused = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert fused == legacy

    def test_optional_group(self):
        graph = build_cube([(0, 0, 2, True), (1, 1, 3, False)])
        self._check_fuses(
            graph,
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ ?o <{EX}dim> ?d . "
            f"OPTIONAL {{ ?o <{EX}val> ?v . }} }} GROUP BY ?d",
        )

    def test_property_path(self):
        graph = build_cube([(0, 0, 2, True), (1, 2, 3, True)])
        self._check_fuses(
            graph,
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ ?o <{EX}dim>/<{EX}nothing>* ?d . }} "
            f"GROUP BY ?d",
        )

    def test_union_group(self):
        graph = build_cube([(0, 0, 2, True), (1, 1, 3, True)])
        self._check_fuses(
            graph,
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ "
            f"{{ ?o <{EX}dim> ?d . }} UNION {{ ?o <{EX}val> ?d . }} }} GROUP BY ?d",
        )

    def test_values_group(self):
        graph = build_cube([(0, 0, 2, True), (1, 1, 3, True)])
        self._check_fuses(
            graph,
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ "
            f"VALUES (?d) {{ (<{EX}d0>) (<{EX}d1>) }} ?o <{EX}dim> ?d . }} "
            f"GROUP BY ?d",
        )

    def test_bind_group(self):
        # Formerly the "bind" decline: BIND bodies now lower onto BindOp
        # and fuse with the aggregator.
        graph = build_cube([(0, 0, 2, True), (1, 1, 3, True)])
        self._check_fuses(
            graph,
            f"SELECT ?w (COUNT(*) AS ?c) WHERE {{ ?o <{EX}dim> ?d . "
            f"BIND(?d AS ?w) }} GROUP BY ?w",
        )

    def test_exists_group(self):
        # Formerly the "exists-filter" decline.
        graph = build_cube([(0, 0, 2, True), (0, 1, 3, True), (1, 0, 4, True)])
        self._check_fuses(
            graph,
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ ?o <{EX}dim> ?d . "
            f"FILTER NOT EXISTS {{ ?o <{EX}val> ?v . }} }} GROUP BY ?d",
        )

    def test_minus_group(self):
        # Formerly the "minus" decline.
        graph = build_cube([(0, 0, 2, True), (0, 1, 3, True), (1, 0, 4, True)])
        self._check_fuses(
            graph,
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ ?o <{EX}dim> ?d . "
            f"MINUS {{ ?o <{EX}dim> <{EX}d1> . }} }} GROUP BY ?d",
        )

    def test_subquery_group(self):
        # Formerly the "subquery" decline: the inner SELECT compiles to
        # its own plan and joins like VALUES rows.
        graph = build_cube([(0, 0, 2, True), (0, 1, 3, True), (1, 0, 4, True)])
        self._check_fuses(
            graph,
            f"SELECT ?d (COUNT(*) AS ?c) WHERE {{ "
            f"{{ SELECT ?o WHERE {{ ?o <{EX}val> ?v . }} }} "
            f"?o <{EX}dim> ?d . }} GROUP BY ?d",
        )

    def test_repeated_variable_pattern(self):
        # Formerly the "repeated-variable" decline — the oldest term-space
        # fallback.  The scratch-register equality check now compiles it:
        # only the genuine self-loop survives.
        graph = Graph()
        graph.add(Triple(iri("n0"), iri("p"), iri("n0")))
        graph.add(Triple(iri("n0"), iri("p"), iri("n1")))
        text = f"SELECT (COUNT(*) AS ?c) WHERE {{ ?x <{EX}p> ?x . }}"
        self._check_fuses(graph, text)
        fused = Evaluator(graph, compile=True).select(text)
        assert fused.rows[0][0].lexical == "1"


class TestFallbackShapes:
    """Non-qualifying queries must decline compilation — with a stable
    reason string — and still answer correctly via the term-space path."""

    def _check_declines(self, graph, text, reason):
        query = parse_query(text)
        plan, got_reason = compile_aggregate_ex(graph, query)
        assert plan is None
        assert got_reason == reason
        fused_engine = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert fused_engine == legacy

    def test_computed_aggregate_argument(self):
        graph = build_cube([(0, 0, 2, True), (0, 1, 3, True), (1, 0, 4, True)])
        self._check_declines(
            graph,
            f"SELECT ?d (SUM(?v + ?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d",
            "aggregate-argument",
        )

    def test_non_aggregate_query_declines(self):
        graph = build_cube([(0, 0, 2, True)])
        query = parse_query(f"SELECT ?d WHERE {{ ?o <{EX}dim> ?d . }}")
        plan, reason = compile_aggregate_ex(graph, query)
        assert plan is None
        assert reason == "not-aggregate"


class TestPlanCacheAndCounters:
    def _cube(self):
        return build_cube(
            [(0, 0, 2, True), (0, 1, 3, True), (1, 0, 4, True), (2, 2, 5, True)]
        )

    def test_endpoint_counts_fused_and_fallback(self):
        graph = self._cube()
        endpoint = Endpoint(graph)
        endpoint.select(f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d")
        endpoint.select(
            f"SELECT ?d (SUM(?v + ?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d"
        )
        endpoint.select(f"SELECT ?d WHERE {{ ?o <{EX}dim> ?d . }}")  # not aggregate
        stats = endpoint.stats.snapshot()
        assert stats.fused_aggregates == 1
        assert stats.fallback_aggregates == 1
        # The plain SELECT rides the compiled engine and is counted apart.
        assert stats.compiled_selects == 1
        assert stats.fallback_selects == 0
        assert stats.decline_reasons == {"aggregate-argument": 1}

    def test_endpoint_counts_groups_and_folded_rows(self):
        # obs0 has two dims and two values: 4 join rows, so d0 folds 3
        # rows, d1 2 and d2 1.  HAVING drops groups after they formed; a
        # query matching nothing still forms its one ungrouped group.
        grouped = (f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} "
                   f"GROUP BY ?d HAVING (SUM(?v) > 5)")
        empty = f"SELECT (COUNT(*) AS ?n) WHERE {{ ?o <{EX}dim> <{EX}none> }}"
        for vectorize in (True, False):
            endpoint = Endpoint(self._cube(), vectorize=vectorize)
            assert len(endpoint.select(grouped)) == 1
            endpoint.select(empty)
            stats = endpoint.stats.snapshot()
            assert (stats.groups_formed, stats.aggregate_rows) == (3 + 1, 6 + 0)
        assert {"groups_formed", "aggregate_rows"} <= set(COUNTERS)

    def test_no_compile_endpoint_counts_fallback(self):
        graph = self._cube()
        endpoint = Endpoint(graph, compile=False)
        endpoint.select(f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d")
        stats = endpoint.stats.snapshot()
        assert stats.fused_aggregates == 0
        assert stats.fallback_aggregates == 1

    def test_deadline_enforced_in_fused_loop(self):
        rows = [(i, i % 4, i % 7, True) for i in range(12)]
        graph = build_cube(rows)
        text = f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d"
        with pytest.raises(QueryTimeoutError):
            Evaluator(graph, compile=True).select(text, timeout=0)


class TestMinMaxSinglePass:
    """Satellite regression: the term-space MIN/MAX replaced its full sort
    with a single pass; tie handling must match the stable sort exactly."""

    def _graph_with_values(self, lexicals):
        graph = Graph()
        graph.add(Triple(iri("obs0"), iri("dim"), iri("d0")))
        for i, (lex, dtype) in enumerate(lexicals):
            subject = iri(f"obs{i}")
            graph.add(Triple(subject, iri("dim"), iri("d0")))
            graph.add(Triple(subject, iri("val"), Literal(lex, datatype=dtype)))
        return graph

    def test_min_max_tie_resolution(self):
        # "01"^^integer and "01"^^double share an identical sort key; the
        # stable sort kept first-for-MIN / last-for-MAX, and so must the
        # single pass — in both engines.
        ties = [("01", XSD_INTEGER), ("01", XSD_DOUBLE), ("1", XSD_INTEGER)]
        graph = self._graph_with_values(ties)
        text = (
            f"SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE {{ {BODY} }}"
        )
        legacy = Evaluator(graph, compile=False).select(text)
        fused = Evaluator(graph, compile=True).select(text)
        assert fused == legacy
        lo, hi = legacy.rows[0]
        assert (lo.lexical, lo.datatype) == ("01", XSD_INTEGER)  # first minimal
        assert (hi.lexical, hi.datatype) == ("1", XSD_INTEGER)  # last maximal

    def test_min_max_distinct_tie_resolution(self):
        # With DISTINCT the dedup keeps first occurrences, so a repeat of
        # an already-seen value must not become "the last maximal".
        values = [
            ("2", XSD_INTEGER),
            ("02", XSD_INTEGER),  # ties with "2" on sort key, distinct term
            ("2", XSD_INTEGER),  # repeat: ignored by DISTINCT
        ]
        graph = self._graph_with_values(values)
        text = f"SELECT (MAX(?v) AS ?hi) (MAX(DISTINCT ?v) AS ?dhi) WHERE {{ {BODY} }}"
        legacy = Evaluator(graph, compile=False).select(text)
        fused = Evaluator(graph, compile=True).select(text)
        assert fused == legacy
        # The winning lexical form ("2" vs "02") depends on row arrival
        # order, which the index does not promise; the invariant is that
        # both engines pick the same term and it is numerically maximal.
        for cell in legacy.rows[0]:
            assert cell.lexical in ("2", "02")
            assert cell.datatype == XSD_INTEGER

    def test_unbound_group_key_groups_kept(self):
        # Regression for the corrected comment in _aggregate: groups whose
        # key component is unbound are kept with a None cell, not dropped.
        graph = build_cube([(0, 0, 1, True), (1, 1, 2, True)])
        text = (
            f"SELECT ?nowhere (COUNT(*) AS ?c) WHERE {{ {BODY} }} "
            f"GROUP BY ?nowhere"
        )
        for compile_flag in (True, False):
            result = Evaluator(graph, compile=compile_flag).select(text)
            assert len(result) == 1
            assert result.rows[0][0] is None
            assert result.rows[0][1].lexical == "2"


class TestBoundedTopK:
    """The legacy ordering paths now use a bounded heap when LIMIT is
    present; results must be indistinguishable from the full sort."""

    def _graph(self):
        graph = Graph()
        for i in range(25):
            subject = iri(f"n{i}")
            graph.add(Triple(subject, iri("rank"), literal_from_python(i % 9)))
        return graph

    @pytest.mark.parametrize("compile_flag", [True, False])
    def test_limit_matches_full_sort_slice(self, compile_flag):
        graph = self._graph()
        base = f"SELECT ?s ?r WHERE {{ ?s <{EX}rank> ?r . }} ORDER BY ?r ?s"
        evaluator = Evaluator(graph, compile=compile_flag)
        full = evaluator.select(base)
        for limit, offset in [(3, 0), (5, 4), (1, 24), (30, 0), (0, 2)]:
            text = base + f" LIMIT {limit}" + (f" OFFSET {offset}" if offset else "")
            sliced = evaluator.select(text)
            assert sliced.rows == full.rows[offset:offset + limit]

    @pytest.mark.parametrize("compile_flag", [True, False])
    def test_distinct_not_truncated_by_topk(self, compile_flag):
        # DISTINCT collapses projected rows, so the solution-space top-k
        # must not engage: the LIMIT must still see enough distinct rows.
        graph = self._graph()
        text = (
            f"SELECT DISTINCT ?r WHERE {{ ?s <{EX}rank> ?r . }} "
            f"ORDER BY ?r LIMIT 5"
        )
        result = Evaluator(graph, compile=compile_flag).select(text)
        assert [row[0].lexical for row in result.rows] == ["0", "1", "2", "3", "4"]

    def test_aggregate_order_limit_uses_plan(self):
        graph = build_cube(
            [(i, i % 3, i, True) for i in range(12)]
        )
        text = (
            f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d "
            f"ORDER BY DESC(?s) LIMIT 1"
        )
        query = parse_query(text)
        plan = compile_aggregate(graph, query)
        assert isinstance(plan, AggregatePlan)
        fused = Evaluator(graph, compile=True).select(query)
        legacy = Evaluator(graph, compile=False).select(query)
        assert fused == legacy
        assert len(fused) == 1


class TestBatchedSumExactness:
    """The group table's SUM/AVG must add each group's values in row
    order: wherever float additions round (a total at 2**53, a
    non-integer total), summing the rows in any other order would break
    batched == tuple bit-for-bit."""

    def _fold(self, values_by_id, ids, total=0.0):
        """One group's (SUM, AVG), by the group table and row by row via
        ``add``.  A nonzero ``total`` is a leading row holding it."""
        np = pytest.importorskip("numpy")
        from repro.sparql.aggregator import _Column, _ExecState, _Sum, _table_sum
        from repro.store.index import numeric_of

        terms = {i: literal_from_python(v) for i, v in values_by_id.items()}
        if total:
            terms[len(terms)] = literal_from_python(total)
            ids = [len(terms) - 1] + ids
        state = _ExecState(terms.__getitem__, lambda i: numeric_of(terms[i]))
        col = np.array(ids, dtype=np.int64)
        gids = np.zeros(len(ids), dtype=np.int64)
        grouped, rowwise = [], []
        for average in (False, True):
            [value] = _table_sum(_Column(gids, col), 1, state, average=average)
            grouped.append(value.numeric_value())
            accumulator = _Sum(state, average=average)
            for term_id in ids:
                accumulator.add(term_id)
            rowwise.append(accumulator.finish(state).numeric_value())
        return grouped, rowwise

    def test_small_integer_batch_folds(self):
        grouped, rowwise = self._fold({0: 3, 1: 4}, [0, 1, 0])
        assert grouped == rowwise == [10.0, 10.0 / 3]

    def test_declines_when_batch_mass_exceeds_exact_range(self):
        # From a running total of 2**53, each +1 rounds back down
        # (ties-to-even); summing the ones first would give 2**53 + 2.
        grouped, rowwise = self._fold({0: 1}, [0, 0], total=2.0 ** 53)
        assert grouped == rowwise == [2.0 ** 53, 2.0 ** 53 / 3]

    def test_declines_on_noninteger_running_total(self):
        # A leading 0.5: in row order the second addition rounds
        # (2**52 + 0.5 -> 2**52); summing the integers first would not.
        grouped, rowwise = self._fold({0: 2 ** 52 - 1, 1: 1}, [0, 1, 1],
                                      total=0.5)
        assert grouped[0] == rowwise[0] == 2.0 ** 52 + 1
        assert grouped[1] == rowwise[1]

    def test_large_value_sum_parity_end_to_end(self):
        # 3 × (2**53 - 1): sequential float folding rounds differently
        # than one grouped multiply, so the batched path must replay.
        graph = Graph()
        for i in range(3):
            graph.add(Triple(iri(f"obs{i}"), iri("dim"), iri("d0")))
            graph.add(Triple(iri(f"obs{i}"), iri("val"),
                             literal_from_python(2 ** 53 - 1)))
        graph.triple_index.flush()
        text = f"SELECT ?d (SUM(?v) AS ?s) WHERE {{ {BODY} }} GROUP BY ?d"
        batched = Evaluator(graph, compile=True, vectorize=True).select(text)
        tuple_engine = Evaluator(graph, compile=True, vectorize=False).select(text)
        legacy = Evaluator(graph, compile=False).select(text)
        assert batched.rows == tuple_engine.rows == legacy.rows
