"""Tests for keyword-to-interpretation matching (Algorithm 1, MATCHES)."""

import pytest

from repro.core import VirtualSchemaGraph, find_interpretations
from repro.datasets import generate_dbpedia, generate_eurostat, generate_production
from repro.qb import OBSERVATION_CLASS
from repro.rdf import IRI, Literal
from repro.rdf.namespace import RDFS
from repro.sparql import parse_query

MINI = "http://example.org/mini/"


def prop(name):
    return IRI(MINI + "prop/" + name)


class TestFindInterpretations:
    def test_country_is_ambiguous(self, mini_endpoint, mini_vgraph):
        # "Germany" is a member of both origin and destination countries.
        interpretations = find_interpretations(mini_endpoint, mini_vgraph, "Germany")
        dims = {i.level.dimension_predicate for i in interpretations}
        assert dims == {prop("country_of_origin"), prop("country_of_destination")}
        assert all(i.level.depth == 1 for i in interpretations)

    def test_continent_matches_at_upper_level(self, mini_endpoint, mini_vgraph):
        interpretations = find_interpretations(mini_endpoint, mini_vgraph, "Europe")
        assert len(interpretations) == 2
        assert all(i.level.depth == 2 for i in interpretations)

    def test_year_unambiguous(self, mini_endpoint, mini_vgraph):
        interpretations = find_interpretations(mini_endpoint, mini_vgraph, "2014")
        assert len(interpretations) == 1
        assert interpretations[0].level.dimension_predicate == prop("ref_period")

    def test_case_insensitive(self, mini_endpoint, mini_vgraph):
        assert find_interpretations(mini_endpoint, mini_vgraph, "germany")
        assert find_interpretations(mini_endpoint, mini_vgraph, "GERMANY")

    def test_unknown_keyword(self, mini_endpoint, mini_vgraph):
        assert find_interpretations(mini_endpoint, mini_vgraph, "Atlantis") == []

    def test_predicate_label_is_not_a_member(self, mini_endpoint, mini_vgraph):
        # "Num Applicants" matches a predicate label; predicates are not
        # dimension members, so no interpretation results.
        assert find_interpretations(mini_endpoint, mini_vgraph, "Num Applicants") == []

    def test_member_recorded(self, mini_endpoint, mini_vgraph, mini_kg):
        interpretations = find_interpretations(mini_endpoint, mini_vgraph, "Syria")
        members = {i.member for i in interpretations}
        expected = {m.iri for m in mini_kg.members_of("origin", "country") if m.label == "Syria"}
        assert members == expected

    def test_results_deterministic(self, mini_endpoint, mini_vgraph):
        a = find_interpretations(mini_endpoint, mini_vgraph, "Germany")
        b = find_interpretations(mini_endpoint, mini_vgraph, "Germany")
        assert a == b

    def test_validation_filters_unreachable(self, mini_endpoint, mini_vgraph):
        # With validation every interpretation is backed by an observation.
        with_validation = find_interpretations(mini_endpoint, mini_vgraph, "Europe", validate=True)
        without = find_interpretations(mini_endpoint, mini_vgraph, "Europe", validate=False)
        assert set(with_validation) <= set(without)
        assert with_validation  # mini KG is dense enough to reach everything

    def test_token_fallback(self, eurostat_endpoint, eurostat_vgraph):
        # "January 2010" exists as a month label; searching a rarer token
        # combination should still resolve via the token index.
        interpretations = find_interpretations(
            eurostat_endpoint, eurostat_vgraph, "January 2010"
        )
        assert interpretations
        assert all(i.level.path[0].local_name() == "ref_period" for i in interpretations)


class _Recorder:
    """An endpoint stand-in that answers every ASK yes and keeps it."""

    def __init__(self, text_index=None):
        self.text_index = text_index
        self.asks = []

    def ask(self, query, timeout=None):
        self.asks.append(query)
        return True


@pytest.mark.parametrize("generate", [generate_eurostat, generate_production,
                                      generate_dbpedia])
def test_membership_probes_are_the_asts_of_their_old_text(generate):
    """REOLAP's probes are built as ASTs; each equals what parsing the
    text they used to be formatted as gives, for every level."""
    from repro.core.matching import (
        Interpretation, _incoming_terminal_predicates, _reaches_observation)
    from repro.core.reolap import _all_tuples_cooccur
    from repro.core.suggest import suggest

    kg = generate(n_observations=20, scale=0.05, seed=0)
    endpoint = kg.endpoint()
    vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
    observation = vgraph.observation_class.n3()
    member = IRI(MINI + "member/m")

    def chain(level):
        return " / ".join(p.n3() for p in level.path)

    recorder = _Recorder()
    terminals = _incoming_terminal_predicates(recorder, vgraph, member)
    assert terminals and recorder.asks == [
        parse_query(f"ASK {{ ?x {p.n3()} {member.n3()} }}") for p in terminals]
    levels = vgraph.all_levels()
    for level in levels:
        recorder.asks.clear()
        _reaches_observation(recorder, vgraph, level, member)
        assert recorder.asks == [parse_query(
            f"ASK {{ ?o a {observation} . ?o {chain(level)} {member.n3()} }}")]
    rows = [tuple(Interpretation("k", Literal("k"), member, RDFS.label, level)
                  for level in pair)
            for pair in zip(levels, levels[1:] + levels[:1])]
    recorder.asks.clear()
    _all_tuples_cooccur(recorder, vgraph, rows)
    assert recorder.asks == [parse_query("ASK { " + " ".join(
        [f"?o a {observation} ."]
        + [f"?o {chain(i.level)} {i.member.n3()} ." for i in row]) + " }")
        for row in rows]

    recorder = _Recorder(endpoint.text_index)
    label = next(iter(kg.members.values()))[0].label
    suggest(recorder, vgraph, label[:3])
    assert recorder.asks
    for ask in recorder.asks:
        (pattern,) = ask.where.elements
        assert ask == parse_query(
            f"ASK {{ ?x {pattern.p.n3()} {pattern.o.n3()} }}")
