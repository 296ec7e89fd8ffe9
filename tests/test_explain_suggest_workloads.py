"""Tests for query-plan explanation, suggestions, and workload generation."""

import pytest

from repro.core import ExplorationSession, reolap, suggest
from repro.rdf import IRI, Triple
from repro.sparql import explain, parse_query
from repro.store import Endpoint, Graph
from repro.workloads import example_tuples, example_tuples_from_vgraph, exploration_walk

EX = "http://example.org/"


MINI = "http://example.org/mini/prop/"
OBSERVATION = "http://purl.org/linked-data/cube#Observation"


def _scans(plan) -> list[str]:
    """The physical plan's triple-pattern operators, in run order."""
    return [line for line in plan.tree
            if line.startswith(("IndexScan", "NestedProbe"))]


def _values_query(graph) -> str:
    (member, *_rest) = sorted(
        {t.o for t in graph if t.p.value == MINI + "country_of_destination"},
        key=lambda term: term.value)
    return (f"SELECT ?o WHERE {{ VALUES ?c {{ {member.n3()} }} "
            f"?o a <{OBSERVATION}> . ?o <{MINI}ref_period> ?s . "
            f"?o <{MINI}country_of_destination> ?c . }}")


class TestExplain:
    def test_plan_orders_selective_first(self, mini_kg):
        # VALUES binds ?c first, so the pattern joining on it runs first,
        # although its text position is last; the plan prints that order
        # once, and no second join order contradicts it.
        plan = explain(mini_kg.graph, _values_query(mini_kg.graph))
        assert plan.tree[0].startswith("ValuesBind ?c")
        assert "country_of_destination" in _scans(plan)[0]
        assert "join order" not in plan.render()

    def test_plan_without_optimizer_preserves_text_order(self, mini_kg):
        plan = explain(mini_kg.graph, _values_query(mini_kg.graph),
                       optimize=False)
        predicates = ["#type", "ref_period", "country_of_destination"]
        scans = _scans(plan)
        assert len(scans) == len(predicates)
        assert all(p in scan for p, scan in zip(predicates, scans))

    def test_render(self, mini_kg, mini_endpoint, mini_vgraph):
        (query, *_rest) = reolap(mini_endpoint, mini_vgraph, ("Germany",))
        rendered = explain(mini_kg.graph, query.to_select()).render()
        assert rendered.startswith("engine: compiled\nphysical plan:")
        assert "est." in rendered

    def test_rejects_ask(self, mini_kg):
        with pytest.raises(TypeError):
            explain(mini_kg.graph, f"ASK {{ ?a <{EX}p> ?b }}")

    def test_driver_line_names_the_case(self, mini_kg):
        # A plan whose first operator is not a scan has no driver, yet runs
        # every operator batched from one seed row — before a write and
        # after it alike.
        graph = Graph(triples=list(mini_kg.graph))
        query = _values_query(graph)
        for _ in range(2):
            rendered = explain(graph, query).render()
            assert "no driving scan: every operator runs batched" in rendered
            endpoint = Endpoint(graph)
            assert len(endpoint.select(query)) > 0
            assert endpoint.stats.fallback_batch_rows == 0
            graph.add(Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o")))
        assert graph.triple_index.pending_mutations == 1


class TestSuggest:
    def test_prefix_completion(self, mini_endpoint, mini_vgraph):
        suggestions = suggest(mini_endpoint, mini_vgraph, "Ger")
        labels = {s.label for s in suggestions}
        assert "Germany" in labels

    def test_ambiguity_reported(self, mini_endpoint, mini_vgraph):
        (germany,) = [s for s in suggest(mini_endpoint, mini_vgraph, "Germany")
                      if s.label == "Germany"]
        assert germany.is_ambiguous  # origin and destination country
        assert len(germany.levels) == 2
        assert "Germany" in germany.render()

    def test_empty_prefix(self, mini_endpoint, mini_vgraph):
        assert suggest(mini_endpoint, mini_vgraph, "   ") == []

    def test_no_match(self, mini_endpoint, mini_vgraph):
        assert suggest(mini_endpoint, mini_vgraph, "zzzz") == []

    def test_limit_respected(self, eurostat_endpoint, eurostat_vgraph):
        suggestions = suggest(eurostat_endpoint, eurostat_vgraph, "c", limit=3)
        assert len(suggestions) <= 3


class TestWorkloads:
    def test_example_tuples_shape(self, mini_kg):
        inputs = example_tuples(mini_kg, size=2, count=5, seed=1)
        assert len(inputs) == 5
        assert all(len(t) == 2 for t in inputs)

    def test_example_tuples_deterministic(self, mini_kg):
        assert example_tuples(mini_kg, 2, seed=4) == example_tuples(mini_kg, 2, seed=4)
        assert example_tuples(mini_kg, 2, seed=4) != example_tuples(mini_kg, 2, seed=5)

    def test_size_validation(self, mini_kg):
        with pytest.raises(ValueError):
            example_tuples(mini_kg, size=99)

    def test_sampled_labels_are_synthesizable(self, mini_kg, mini_endpoint, mini_vgraph):
        for example in example_tuples(mini_kg, size=1, count=5, seed=2):
            assert reolap(mini_endpoint, mini_vgraph, example)

    def test_vgraph_sampling_without_ground_truth(self, mini_endpoint, mini_vgraph):
        inputs = example_tuples_from_vgraph(mini_endpoint, mini_vgraph, size=2, count=3, seed=3)
        assert len(inputs) == 3
        for example in inputs:
            assert reolap(mini_endpoint, mini_vgraph, example)

    def test_exploration_walk(self, mini_endpoint, mini_vgraph):
        session = ExplorationSession(mini_endpoint, mini_vgraph)
        sizes = list(
            exploration_walk(session, ("Germany",), ("disaggregate", "topk"), seed=0)
        )
        assert len(sizes) >= 2
        assert all(size > 0 for size in sizes)
