"""Tests for the CSV/table loader and the COVID-19 dataset."""

import io

import pytest

from repro.core import ExplorationSession, VirtualSchemaGraph, reolap
from repro.datasets import covid_schema, generate_covid
from repro.errors import SchemaError
from repro.qb import OBSERVATION_CLASS, TYPE, load_csv, load_table
from repro.rdf import Literal
from repro.store import Endpoint

TABLE = [
    {"destination": "Germany", "continent": "Europe", "year": "2014", "applicants": "10"},
    {"destination": "Germany", "continent": "Europe", "year": "2015", "applicants": "25"},
    {"destination": "France", "continent": "Europe", "year": "2014", "applicants": "20"},
    {"destination": "Japan", "continent": "Asia", "year": "2014", "applicants": "5"},
]

DIMENSIONS = {"destination": "continent", "year": None}
MEASURES = ["applicants"]


class TestLoadTable:
    def test_observations_and_members(self):
        graph = load_table(TABLE, DIMENSIONS, MEASURES)
        assert graph.count(None, TYPE, OBSERVATION_CLASS) == 4
        labels = {l.lexical for l in graph.literals()}
        assert {"Germany", "France", "Japan", "Europe", "Asia", "2014", "2015"} <= labels

    def test_members_deduplicated(self):
        graph = load_table(TABLE, DIMENSIONS, MEASURES)
        germany_hits = [
            s for s in graph.subjects(None, Literal("Germany"))
        ]
        assert len(germany_hits) == 1

    def test_loaded_graph_is_explorable(self):
        """The adoption path: CSV rows → bootstrap → example-driven query."""
        graph = load_table(TABLE, DIMENSIONS, MEASURES)
        endpoint = Endpoint(graph)
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        assert vgraph.n_levels == 3  # destination, continent, year
        queries = reolap(endpoint, vgraph, ("Germany", "2014"))
        assert queries
        results = endpoint.select(queries[0].to_select())
        # Keyed by the whole group key: the query groups by destination
        # *and* year, and its row order is unspecified (no ORDER BY).
        keys = len(queries[0].dimensions)
        totals = {row[:keys]: row[results.index_of("sum_applicants")].to_python()
                  for row in results.rows}
        assert 10 in totals.values()

    def test_missing_dimension_cell_rejected(self):
        broken = [dict(TABLE[0])]
        broken[0]["destination"] = ""
        with pytest.raises(SchemaError):
            load_table(broken, DIMENSIONS, MEASURES)

    def test_missing_hierarchy_cell_rejected(self):
        broken = [dict(TABLE[0])]
        del broken[0]["continent"]
        with pytest.raises(SchemaError):
            load_table(broken, DIMENSIONS, MEASURES)

    def test_non_numeric_measure_rejected(self):
        broken = [dict(TABLE[0], applicants="many")]
        with pytest.raises(SchemaError):
            load_table(broken, DIMENSIONS, MEASURES)

    def test_row_without_any_measure_rejected(self):
        broken = [dict(TABLE[0], applicants="")]
        with pytest.raises(SchemaError):
            load_table(broken, DIMENSIONS, MEASURES)

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            load_table([], DIMENSIONS, MEASURES)

    def test_overlapping_columns_rejected(self):
        with pytest.raises(SchemaError):
            load_table(TABLE, {"applicants": None}, MEASURES)

    def test_float_measures(self):
        rows = [dict(TABLE[0], applicants="1.5")]
        graph = load_table(rows, DIMENSIONS, MEASURES)
        values = [l for l in graph.literals() if l.is_numeric]
        assert any(l.lexical == "1.5" for l in values)

    def test_load_csv(self):
        text = "destination,continent,year,applicants\n" + "\n".join(
            f"{r['destination']},{r['continent']},{r['year']},{r['applicants']}"
            for r in TABLE
        )
        graph = load_csv(io.StringIO(text), DIMENSIONS, MEASURES)
        assert graph.count(None, TYPE, OBSERVATION_CLASS) == 4


class TestCovidDataset:
    def test_schema_shape(self):
        schema = covid_schema(scale=0.1)
        stats = schema.describe()
        assert stats["D"] == 4
        assert stats["M"] == 1
        # Three-level time hierarchy: day, week, month among the levels.
        level_names = {level.name for d in schema.dimensions for _h, level in d.levels()}
        assert {"day", "week", "month"} <= level_names

    def test_generation_and_exploration(self):
        kg = generate_covid(n_observations=300, scale=0.05, seed=3)
        endpoint = kg.endpoint()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        session = ExplorationSession(endpoint, vgraph)
        candidates = session.synthesize("Germany")
        assert candidates
        session.choose(0)
        # The deep time hierarchy shows up in the drill-down menu.
        drills = {r.explanation for r in session.refinements("disaggregate")}
        assert any("In Week" in d for d in drills)
        assert any("In Month" in d for d in drills)

    def test_three_level_drilldown_chain(self):
        kg = generate_covid(n_observations=300, scale=0.05, seed=3)
        endpoint = kg.endpoint()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        time_levels = vgraph.levels_of_dimension(
            next(p for p in vgraph.dimension_predicates()
                 if p.local_name() == "reporting_date")
        )
        assert [lvl.depth for lvl in time_levels] == [1, 2, 3]
