"""Tests for the ExRef refinement operators (Section 6, Problems 2a-2c)."""

import pytest

from repro.core import (
    Disaggregate,
    Percentile,
    SimilaritySearch,
    TopK,
    reolap,
)
from repro.rdf import IRI, Literal

MINI = "http://example.org/mini/"


def prop(name):
    return IRI(MINI + "prop/" + name)


@pytest.fixture()
def chosen(mini_endpoint, mini_vgraph):
    """The destination-country x year query for ("Germany", "2014")."""
    queries = reolap(mini_endpoint, mini_vgraph, ("Germany", "2014"))
    by_dims = {
        frozenset(d.level.dimension_predicate for d in q.dimensions): q for q in queries
    }
    query = by_dims[frozenset({prop("country_of_destination"), prop("ref_period")})]
    results = mini_endpoint.select(query.to_select())
    return query, results


class TestDisaggregate:
    def test_adds_exactly_one_dimension(self, mini_vgraph, chosen):
        query, results = chosen
        for refinement in Disaggregate(mini_vgraph).propose(query, results):
            assert len(refinement.query.dimensions) == len(query.dimensions) + 1

    def test_candidates_are_valid_levels(self, mini_vgraph, chosen):
        query, _results = chosen
        proposals = Disaggregate(mini_vgraph).propose(query)
        new_paths = {p.query.dimensions[-1].level.path for p in proposals}
        # origin country, origin continent are new dims; destination
        # continent would aggregate higher -> excluded; year already there.
        assert (prop("country_of_origin"),) in new_paths
        assert (prop("country_of_origin"), prop("in_continent")) in new_paths
        assert (prop("country_of_destination"), prop("in_continent")) not in new_paths
        assert (prop("ref_period"),) not in new_paths

    def test_refined_results_contain_example(self, mini_endpoint, mini_vgraph, chosen):
        query, results = chosen
        for refinement in Disaggregate(mini_vgraph).propose(query, results):
            refined = mini_endpoint.select(refinement.query.to_select())
            assert refinement.query.anchor_row_indexes(refined), refinement.explanation

    def test_structural_without_endpoint(self, mini_vgraph, chosen):
        query, _results = chosen
        # Results are optional: the operator never queries the store.
        assert Disaggregate(mini_vgraph).propose(query, None)

    def test_drilldown_within_dimension(self, eurostat_endpoint, eurostat_vgraph):
        # A query grouped by year admits month (finer in same dimension).
        queries = reolap(eurostat_endpoint, eurostat_vgraph, ("2010",))
        year_query = next(
            q for q in queries if q.dimensions[0].level.terminal_predicate.local_name() == "in_year"
        )
        proposals = Disaggregate(eurostat_vgraph).propose(year_query)
        added = {p.query.dimensions[-1].level.path for p in proposals}
        month_path = (year_query.dimensions[0].level.path[0],)
        assert month_path in added


class TestTopK:
    def test_two_directions_per_aggregate(self, chosen):
        query, results = chosen
        proposals = TopK().propose(query, results)
        # 1 measure x 4 aggregates x 2 directions, minus unseparable ties.
        assert 1 <= len(proposals) <= 8
        kinds = {p.kind for p in proposals}
        assert kinds == {"topk"}

    def test_refined_is_smaller_and_anchored(self, mini_endpoint, chosen):
        query, results = chosen
        for refinement in TopK().propose(query, results):
            refined = mini_endpoint.select(refinement.query.to_select())
            assert 0 < len(refined) < len(results), refinement.explanation
            assert refinement.query.anchor_row_indexes(refined)

    def test_having_thresholds_added(self, chosen):
        query, results = chosen
        for refinement in TopK().propose(query, results):
            assert len(refinement.query.having) == len(query.having) + 1

    def test_no_proposals_without_anchor_rows(self, chosen, mini_vgraph):
        query, results = chosen
        # Replace anchors with a member that never appears in results.
        from repro.core import Anchor

        ghost = Anchor(
            level=query.dimensions[0].level,
            member=IRI(MINI + "member/country/999"),
            keyword="ghost",
        )
        orphan = query.with_anchors((ghost,))
        assert TopK().propose(orphan, results) == []

    def test_single_row_yields_nothing(self, mini_endpoint, chosen):
        query, results = chosen
        single = type(results)(results.variables, results.rows[:1])
        assert TopK().propose(query, single) == []


class TestPercentile:
    def test_bands_anchored_and_smaller(self, mini_endpoint, chosen):
        query, results = chosen
        proposals = Percentile().propose(query, results)
        assert proposals
        for refinement in proposals:
            refined = mini_endpoint.select(refinement.query.to_select())
            assert 0 < len(refined) < len(results), refinement.explanation
            assert refinement.query.anchor_row_indexes(refined)

    def test_variable_proposal_count(self, chosen):
        query, results = chosen
        few = Percentile(cuts=(50,)).propose(query, results)
        many = Percentile(cuts=(10, 25, 50, 75, 90)).propose(query, results)
        assert len(few) <= len(many)

    def test_invalid_cuts_rejected(self):
        with pytest.raises(ValueError):
            Percentile(cuts=(0,))
        with pytest.raises(ValueError):
            Percentile(cuts=(100,))

    def test_explanations_name_percentiles(self, chosen):
        query, results = chosen
        for refinement in Percentile().propose(query, results):
            assert "percentile" in refinement.explanation


class TestSimilaritySearch:
    def test_scalar_fallback_without_added_dims(self, mini_endpoint, chosen):
        query, results = chosen
        proposals = SimilaritySearch(k=2).propose(query, results)
        # One proposal per (measure, aggregate): fixed count (Fig. 9b).
        assert len(proposals) == 4
        for refinement in proposals:
            refined = mini_endpoint.select(refinement.query.to_select())
            assert refinement.query.anchor_row_indexes(refined)
            assert len(refined) <= len(results)

    def test_feature_vectors_after_disaggregation(self, mini_endpoint, mini_vgraph, chosen):
        query, results = chosen
        (dis, *_rest) = [
            r for r in Disaggregate(mini_vgraph).propose(query)
            if r.query.dimensions[-1].level.path == (prop("country_of_origin"),)
        ]
        dis_results = mini_endpoint.select(dis.query.to_select())
        proposals = SimilaritySearch(k=2).propose(dis.query, dis_results)
        assert len(proposals) == 4
        refined = mini_endpoint.select(proposals[0].query.to_select())
        # Restricted to anchor + k combos over (dest country x year).
        anchored_vars = sorted(dis.query.anchored_variables(), key=lambda v: v.name)
        combos = {
            tuple(row[refined.index_of(v)] for v in anchored_vars) for row in refined
        }
        assert 1 <= len(combos) <= 3

    def test_k_validation(self):
        with pytest.raises(ValueError):
            SimilaritySearch(k=0)

    def test_figure5_cosine_semantics(self):
        """Reproduce Figure 5: Sweden/Syria and France/China are top-2."""
        from repro.core import Anchor, MeasureColumn, OLAPQuery, QueryDimension, VLevel
        from repro.rdf.terms import XSD_DECIMAL
        from repro.sparql.results import ResultSet

        def member(name):
            return IRI(MINI + "member/" + name)

        destination, origin, year = (
            VLevel((prop(name),), member_count=5, label=name)
            for name in ("country_of_destination", "country_of_origin", "ref_period")
        )
        measure = MeasureColumn(prop("num_applicants"), "applicants")
        query = OLAPQuery(
            IRI(MINI + "Observation"),
            tuple(QueryDimension(level) for level in (destination, origin, year)),
            (measure,),
            anchors=(
                Anchor(destination, member("Germany"), "Germany"),
                Anchor(origin, member("Syria"), "Syria"),
            ),
        )
        vectors = {  # (destination, origin) -> value per year, as in Figure 5
            ("Germany", "Syria"): (0.3, 0.6),
            ("France", "Syria"): (0.3, 0.3),
            ("Sweden", "Syria"): (0.2, 0.4),
            ("Germany", "China"): (0.1, 0.1),
            ("France", "China"): (0.1, 0.3),
            ("Sweden", "China"): (0.3, 0.2),
        }
        rows = [
            (member(dest), member(orig), member(y))
            + (Literal(str(value), datatype=XSD_DECIMAL),) * len(measure.aliases())
            for (dest, orig), values in vectors.items()
            for y, value in zip(("2014", "2015"), values)
        ]
        variables = list(query.group_variables) + [a for _, a in measure.aliases()]
        proposals = SimilaritySearch(k=2).propose(query, ResultSet(variables, rows))
        assert len(proposals) == len(measure.aliases())
        for refinement in proposals:
            anchor, *top = refinement.query.member_restrictions[-1].rows
            assert anchor == (member("Germany"), member("Syria"))
            assert set(top) == {
                (member("Sweden"), member("Syria")),
                (member("France"), member("China")),
            }

    def test_no_anchor_in_results_yields_nothing(self, chosen):
        query, results = chosen
        from repro.core import Anchor

        ghost = Anchor(
            level=query.dimensions[0].level,
            member=IRI(MINI + "member/country/999"),
            keyword="ghost",
        )
        orphan = query.with_anchors((ghost,))
        assert SimilaritySearch().propose(orphan, results) == []
