"""Tests for the OLAP query model and its SPARQL assembly."""

import pytest

from repro.core import reolap
from repro.rdf import IRI, Variable
from repro.sparql import parse_query

MINI = "http://example.org/mini/"


def prop(name):
    return IRI(MINI + "prop/" + name)


@pytest.fixture()
def base_query(mini_endpoint, mini_vgraph):
    queries = reolap(mini_endpoint, mini_vgraph, ("Germany", "2014"))
    by_dims = {
        frozenset(d.level.dimension_predicate for d in q.dimensions): q for q in queries
    }
    return by_dims[frozenset({prop("country_of_destination"), prop("ref_period")})]


class TestAssembly:
    def test_group_by_matches_dimensions(self, base_query):
        select = base_query.to_select()
        assert set(select.group_by) == set(base_query.group_variables)

    def test_observation_typed(self, base_query):
        patterns = base_query.to_select().where.triple_patterns()
        assert any(p.p.value.endswith("#type") for p in patterns)

    def test_chain_deduplication(self, mini_vgraph, base_query):
        """Adding a level sharing a prefix emits the shared pattern once."""
        continent = mini_vgraph.level(
            (prop("country_of_destination"), prop("in_continent"))
        )
        extended = base_query.with_dimension(continent)
        patterns = extended.to_select().where.triple_patterns()
        base_edges = [
            p for p in patterns
            if p.p == prop("country_of_destination")
        ]
        assert len(base_edges) == 1

    def test_with_dimension_rejects_duplicates(self, mini_vgraph, base_query):
        level = base_query.dimensions[0].level
        with pytest.raises(ValueError):
            base_query.with_dimension(level)

    def test_limit_passthrough(self, base_query):
        assert base_query.to_select(limit=1).limit == 1

    def test_sparql_text_is_parseable(self, base_query):
        parse_query(base_query.sparql())


class TestAnchors:
    def test_anchor_rows_found(self, mini_endpoint, base_query):
        results = mini_endpoint.select(base_query.to_select())
        indexes = base_query.anchor_row_indexes(results)
        assert indexes
        germany = {a.member for a in base_query.anchors if a.keyword == "Germany"}
        column = results.index_of(base_query.dimensions[0].variable)
        for index in indexes:
            assert results.rows[index][column] in germany

    def test_all_rows_match_without_anchors(self, mini_endpoint, base_query):
        anchorless = base_query.with_anchors(())
        results = mini_endpoint.select(anchorless.to_select())
        assert anchorless.anchor_row_indexes(results) == list(range(len(results)))


class TestValidation:
    def test_requires_dimension_and_measure(self, base_query):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(base_query, dimensions=())
        with pytest.raises(ValueError):
            dataclasses.replace(base_query, measures=())

    def test_measure_aliases(self, base_query):
        measure = base_query.measures[0]
        aliases = dict(measure.aliases())
        assert set(aliases) == {"SUM", "MIN", "MAX", "AVG"}
        assert aliases["SUM"] == Variable("sum_num_applicants")

    def test_dimension_lookup(self, base_query):
        variable = base_query.dimensions[0].variable
        assert base_query.dimension_for_variable(variable) is base_query.dimensions[0]
        with pytest.raises(KeyError):
            base_query.dimension_for_variable(Variable("nope"))

    def test_has_dimension_predicate(self, base_query):
        assert base_query.has_dimension_predicate(prop("ref_period"))
        assert not base_query.has_dimension_predicate(prop("country_of_origin"))


class TestAnchorsSharingAColumn:
    def test_two_keywords_of_one_tuple_in_one_column(self):
        # ("Germany", "France") as two destination countries: one example
        # tuple, one grouping column.  A row holding either member matches;
        # no row can hold both.
        from repro.core import Anchor, MeasureColumn, OLAPQuery, QueryDimension, VLevel
        from repro.sparql.results import ResultSet

        level = VLevel((prop("country_of_destination"),), member_count=3,
                       label="Country Of Destination")
        germany, france, italy = (IRI(MINI + f"member/{n}")
                                  for n in ("de", "fr", "it"))
        measure = MeasureColumn(prop("num_applicants"), "Num Applicants")
        query = OLAPQuery(
            IRI(MINI + "Observation"), (QueryDimension(level),), (measure,),
            anchors=(Anchor(level, germany, "Germany"),
                     Anchor(level, france, "France")),
        )
        results = ResultSet([level.variable()],
                            [(germany,), (italy,), (france,)])
        assert query.anchor_row_indexes(results) == [0, 2]
