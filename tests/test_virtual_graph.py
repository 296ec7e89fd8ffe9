"""Tests for virtual schema graph construction and traversal (Section 5.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BootstrapError
from repro.core import VirtualSchemaGraph, VLevel, path_variable
from repro.datasets import generate_dbpedia, generate_eurostat, generate_production
from repro.qb import OBSERVATION_CLASS
from repro.qb.vocabulary import LABEL, TYPE
from repro.rdf import IRI, Literal, Triple, Variable, literal_from_python
from repro.store import Endpoint, Graph

from tests.chain_crawler import chain_bootstrap, chain_refreshed

MINI = "http://example.org/mini/"


def prop(name):
    return IRI(MINI + "prop/" + name)


class TestBootstrap:
    def test_discovers_all_levels(self, mini_vgraph):
        paths = {tuple(p.value for p in lvl.path) for lvl in mini_vgraph.all_levels()}
        expected = {
            (MINI + "prop/country_of_origin",),
            (MINI + "prop/country_of_origin", MINI + "prop/in_continent"),
            (MINI + "prop/country_of_destination",),
            (MINI + "prop/country_of_destination", MINI + "prop/in_continent"),
            (MINI + "prop/ref_period",),
        }
        assert paths == expected

    def test_discovers_measures(self, mini_vgraph):
        labels = set(mini_vgraph.measures.values())
        assert labels == {"Num Applicants"}

    def test_member_counts(self, mini_vgraph):
        origin = mini_vgraph.level((prop("country_of_origin"),))
        assert origin.member_count == 4
        continent = mini_vgraph.level((prop("country_of_origin"), prop("in_continent")))
        assert continent.member_count == 2

    def test_observation_count(self, mini_vgraph):
        assert mini_vgraph.observation_count == 120

    def test_labels_from_annotations(self, mini_vgraph):
        level = mini_vgraph.level((prop("country_of_origin"), prop("in_continent")))
        assert level.label == "Country Of Origin / In Continent"

    def test_attribute_predicates_include_label(self, mini_vgraph):
        level = mini_vgraph.level((prop("country_of_origin"),))
        assert IRI("http://www.w3.org/2000/01/rdf-schema#label") in level.attribute_predicates

    def test_vocabulary_predicates_excluded(self, mini_vgraph):
        for level in mini_vgraph.all_levels():
            for predicate in level.path:
                assert "purl.org" not in predicate.value
                assert not predicate.value.endswith("#type")

    def test_empty_graph_raises(self):
        endpoint = Endpoint(Graph())
        with pytest.raises(BootstrapError):
            VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)

    def test_no_measures_raises(self):
        g = Graph()
        obs = IRI("urn:obs1")
        g.add(Triple(obs, IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), OBSERVATION_CLASS))
        g.add(Triple(obs, IRI("urn:dim"), IRI("urn:member")))
        with pytest.raises(BootstrapError):
            VirtualSchemaGraph.bootstrap(Endpoint(g), OBSERVATION_CLASS)

    def test_cycle_guard_depth_cap(self):
        # a -> b -> a -> b ... must terminate via max_depth.
        g = Graph()
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        obs, a, b = IRI("urn:obs"), IRI("urn:a"), IRI("urn:b")
        g.add(Triple(obs, rdf_type, OBSERVATION_CLASS))
        g.add(Triple(obs, IRI("urn:dim"), a))
        g.add(Triple(obs, IRI("urn:val"), literal_from_python(5)))
        g.add(Triple(a, IRI("urn:p"), b))
        g.add(Triple(b, IRI("urn:q"), a))
        vgraph = VirtualSchemaGraph.bootstrap(Endpoint(g), OBSERVATION_CLASS, max_depth=4)
        assert all(lvl.depth <= 4 for lvl in vgraph.all_levels())


class TestTraversal:
    def test_base_levels(self, mini_vgraph):
        assert {lvl.path[0].local_name() for lvl in mini_vgraph.base_levels()} == {
            "country_of_origin", "country_of_destination", "ref_period",
        }

    def test_levels_with_terminal_ambiguous(self, mini_vgraph):
        # in_continent terminates both origin and destination continent levels.
        levels = mini_vgraph.levels_with_terminal(prop("in_continent"))
        assert len(levels) == 2

    def test_levels_of_dimension(self, mini_vgraph):
        levels = mini_vgraph.levels_of_dimension(prop("country_of_origin"))
        assert [lvl.depth for lvl in levels] == [1, 2]

    def test_finer_coarser(self, mini_vgraph):
        base = mini_vgraph.level((prop("country_of_origin"),))
        upper = mini_vgraph.level((prop("country_of_origin"), prop("in_continent")))
        assert base.is_finer_than(upper)
        assert upper.is_coarser_than(base)
        assert not upper.is_finer_than(base)
        other = mini_vgraph.level((prop("country_of_destination"),))
        assert not other.is_finer_than(upper)

    def test_n_members_totals(self, mini_vgraph):
        # 4 + 2 (origin) + 4 + 2 (destination) + 3 (year) = 15
        assert mini_vgraph.n_members == 15

    def test_unknown_path_raises(self, mini_vgraph):
        with pytest.raises(KeyError):
            mini_vgraph.level((IRI("urn:nope"),))

    def test_summary_renders(self, mini_vgraph):
        text = mini_vgraph.summary()
        assert "observations (120)" in text
        assert "Num Applicants" in text


class TestPathVariable:
    def test_deterministic(self):
        path = (prop("country_of_origin"), prop("in_continent"))
        assert path_variable(path) == path_variable(path)
        assert path_variable(path) == Variable("country_of_origin_in_continent")

    def test_sanitizes_odd_characters(self):
        assert path_variable((IRI("http://x.org/x-y.z"),)).name == "x_y_z"

    def test_leading_digit(self):
        name = path_variable((IRI("http://x.org/1abc"),)).name
        assert name.startswith("p") and "1abc" in name


class TestRefresh:
    def test_refreshed_counts_new_data(self, mini_kg):
        endpoint = mini_kg.endpoint()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        before = vgraph.observation_count
        # Append one more observation reusing an existing member.
        from repro.qb import CubeBuilder
        from tests.conftest import mini_schema

        builder = CubeBuilder(mini_schema(), seed=42)
        obs = IRI(MINI + "obs/99999")
        member = mini_kg.members_of("origin", "country")[0]
        rdf_type = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        mini_kg.graph.add(Triple(obs, rdf_type, OBSERVATION_CLASS))
        mini_kg.graph.add(Triple(obs, prop("country_of_origin"), member.iri))
        try:
            refreshed = vgraph.refreshed(endpoint)
            assert refreshed.observation_count == before + 1
            assert refreshed.levels.keys() == vgraph.levels.keys()
        finally:
            mini_kg.graph.remove(Triple(obs, rdf_type, OBSERVATION_CLASS))
            mini_kg.graph.remove(Triple(obs, prop("country_of_origin"), member.iri))


class TestVLevel:
    def test_requires_path(self):
        with pytest.raises(ValueError):
            VLevel(path=(), member_count=0, label="x")

    def test_base_properties(self):
        level = VLevel(path=(prop("a"), prop("b")), member_count=5, label="A / B")
        assert level.dimension_predicate == prop("a")
        assert level.terminal_predicate == prop("b")
        assert level.depth == 2
        assert not level.is_base


def schema_fields(vgraph):
    """Every field of a graph, for equality (levels compare as VLevels)."""
    return (vgraph.observation_class, vgraph.levels, vgraph.measures,
            vgraph.observation_count, vgraph.observation_attributes)


CUBE = "http://example.org/cube/"
NODE_COUNT = 6


def node(i):
    return IRI(f"{CUBE}node/{i}")


#: An edge object: a node (by index), or a literal — mixing both under one
#: predicate gives a roll-up whose child level holds literals too.
edge_objects = st.one_of(
    st.integers(0, NODE_COUNT - 1),
    st.sampled_from([literal_from_python(7), Literal("seven"), Literal("7", language="en")]),
)


@st.composite
def small_cubes(draw):
    """A graph of observations over a random member graph.

    Random edges over few nodes give M-to-N steps, cycles, levels reached by
    two paths and predicates reused at several depths.
    """
    n_obs = draw(st.integers(1, 5))
    triples = []
    for o in range(n_obs):
        obs = IRI(f"{CUBE}obs/{o}")
        triples.append(Triple(obs, TYPE, OBSERVATION_CLASS))
        triples.append(Triple(obs, IRI(CUBE + "measure"), literal_from_python(o * 3)))
        for d in draw(st.lists(st.integers(0, 2), max_size=3)):
            target = draw(edge_objects)
            target = node(target) if isinstance(target, int) else target
            triples.append(Triple(obs, IRI(f"{CUBE}dim{d}"), target))
    for s_idx, p_idx, target in draw(st.lists(
            st.tuples(st.integers(0, NODE_COUNT - 1), st.integers(0, 3), edge_objects),
            max_size=14)):
        target = node(target) if isinstance(target, int) else target
        triples.append(Triple(node(s_idx), IRI(f"{CUBE}up{p_idx}"), target))
    for p_idx in draw(st.lists(st.integers(0, 3), max_size=2)):
        triples.append(Triple(IRI(f"{CUBE}up{p_idx}"), LABEL, Literal(f"Up {p_idx}")))
    excluded = frozenset({TYPE} | set(draw(st.sampled_from(
        [(), (IRI(CUBE + "up3"),), (IRI(CUBE + "dim2"), IRI(CUBE + "up0"))]))))
    return triples, excluded, draw(st.integers(1, 4)), draw(st.booleans())


class TestChainOracle:
    """The member-set crawl returns what the path-chain crawl returned."""

    @pytest.mark.parametrize("generate", [
        lambda: generate_eurostat(n_observations=400, scale=0.2, seed=3),
        lambda: generate_dbpedia(n_observations=300, scale=0.03, seed=3),
        lambda: generate_production(n_observations=300, scale=0.3, seed=3),
    ], ids=["eurostat", "dbpedia", "production"])
    def test_generated_shapes(self, generate):
        endpoint = generate().endpoint()
        assert schema_fields(VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)) \
            == schema_fields(chain_bootstrap(endpoint, OBSERVATION_CLASS))

    @settings(max_examples=150, deadline=None)
    @given(small_cubes())
    def test_small_cubes(self, cube):
        triples, excluded, max_depth, settled = cube
        if settled:
            graph = Graph(triples=triples)
        else:
            graph = Graph()
            for triple in triples:
                graph.add(triple)
        endpoint = Endpoint(graph)
        args = (endpoint, OBSERVATION_CLASS, excluded, max_depth)
        try:
            expected = schema_fields(chain_bootstrap(*args))
        except BootstrapError as exc:
            with pytest.raises(BootstrapError, match=str(exc)):
                VirtualSchemaGraph.bootstrap(*args)
            return
        assert schema_fields(VirtualSchemaGraph.bootstrap(*args)) == expected

    def test_one_select_per_level(self):
        endpoint = generate_eurostat(n_observations=400, scale=0.2, seed=3).endpoint()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        labelled = {p for path in vgraph.levels for p in path} | set(vgraph.measures)
        # count + dimension scan + measure scan + attribute scan, one query
        # per level, one label lookup per predicate.
        assert endpoint.stats.select_queries == 4 + vgraph.n_levels + len(labelled)

    @pytest.mark.parametrize("sample_size", [3, 5])
    def test_refreshed_after_appends_equals_fresh_bootstrap(self, sample_size):
        kg = generate_eurostat(n_observations=40, scale=0.4, seed=5)
        endpoint = kg.endpoint()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS,
                                              sample_size=sample_size)
        grown = generate_eurostat(n_observations=700, scale=0.4, seed=5)
        kg.graph.add_all(grown.graph)
        refreshed = vgraph.refreshed(endpoint)
        assert refreshed.observation_count > vgraph.observation_count
        assert refreshed.n_members > vgraph.n_members  # new members were reached
        assert schema_fields(refreshed) == schema_fields(VirtualSchemaGraph.bootstrap(
            endpoint, OBSERVATION_CLASS, sample_size=sample_size))
        counts = {path: level.member_count for path, level in refreshed.levels.items()}
        assert counts == {path: level.member_count for path, level
                          in chain_refreshed(vgraph, endpoint).levels.items()}
