"""Unit tests for the triple store: graph, indexes, dataset, views."""

import pytest

from repro.rdf import IRI, Literal, Quad, Triple, literal_from_python
from repro.store import Dataset, Endpoint, Graph, GraphView, TermDictionary, TripleIndex

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


def t(s, p, o):
    return Triple(iri(s), iri(p), o if not isinstance(o, str) else iri(o))


@pytest.fixture
def graph():
    g = Graph()
    g.add(t("obs1", "dim", "Germany"))
    g.add(t("obs1", "val", literal_from_python(10)))
    g.add(t("obs2", "dim", "France"))
    g.add(t("obs2", "val", literal_from_python(20)))
    g.add(t("Germany", "inContinent", "Europe"))
    g.add(t("France", "inContinent", "Europe"))
    return g


class TestTermDictionary:
    def test_encode_is_stable(self):
        d = TermDictionary()
        a = d.encode(iri("x"))
        assert d.encode(iri("x")) == a
        assert d.decode(a) == iri("x")

    def test_lookup_missing(self):
        assert TermDictionary().lookup(iri("x")) is None

    def test_len(self):
        d = TermDictionary()
        d.encode(iri("x"))
        d.encode(iri("x"))
        d.encode(iri("y"))
        assert len(d) == 2


class TestTripleIndex:
    def test_add_remove(self):
        idx = TripleIndex()
        assert idx.add(1, 2, 3)
        assert not idx.add(1, 2, 3)
        assert len(idx) == 1
        assert idx.remove(1, 2, 3)
        assert not idx.remove(1, 2, 3)
        assert len(idx) == 0

    def test_all_pattern_shapes(self):
        idx = TripleIndex()
        idx.add(1, 2, 3)
        idx.add(1, 2, 4)
        idx.add(5, 2, 3)
        patterns = [
            ((1, 2, 3), 1),
            ((1, 2, None), 2),
            ((1, None, 3), 1),
            ((None, 2, 3), 2),
            ((1, None, None), 2),
            ((None, 2, None), 3),
            ((None, None, 3), 2),
            ((None, None, None), 3),
        ]
        for pattern, expected in patterns:
            assert len(list(idx.match(*pattern))) == expected, pattern
            assert idx.count(*pattern) == expected, pattern

    def test_remove_cleans_empty_buckets(self):
        idx = TripleIndex()
        idx.add(1, 2, 3)
        idx.remove(1, 2, 3)
        assert list(idx.match(None, None, None)) == []
        assert idx.count(1, None, None) == 0


class TestGraph:
    def test_len_and_contains(self, graph):
        assert len(graph) == 6
        assert t("obs1", "dim", "Germany") in graph
        assert t("obs1", "dim", "France") not in graph

    def test_duplicate_add(self, graph):
        assert not graph.add(t("obs1", "dim", "Germany"))
        assert len(graph) == 6

    def test_pattern_matching(self, graph):
        assert len(list(graph.triples(iri("obs1"), None, None))) == 2
        assert len(list(graph.triples(None, iri("dim"), None))) == 2
        assert len(list(graph.triples(None, None, iri("Europe")))) == 2

    def test_pattern_with_unknown_term(self, graph):
        assert list(graph.triples(iri("nope"), None, None)) == []
        assert graph.count(iri("nope"), None, None) == 0

    def test_subjects_objects_distinct(self, graph):
        assert set(graph.subjects(iri("inContinent"))) == {iri("Germany"), iri("France")}
        assert set(graph.objects(None, iri("inContinent"))) == {iri("Europe")}

    def test_predicates(self, graph):
        assert set(graph.predicates()) == {iri("dim"), iri("val"), iri("inContinent")}

    def test_predicate_cardinality(self, graph):
        assert graph.predicate_cardinality(iri("dim")) == 2
        assert graph.predicate_cardinality(iri("missing")) == 0

    def test_remove(self, graph):
        assert graph.remove(t("obs1", "dim", "Germany"))
        assert len(graph) == 5
        assert not graph.remove(t("obs1", "dim", "Germany"))

    def test_value(self, graph):
        assert graph.value(iri("Germany"), iri("inContinent"), None) == iri("Europe")
        assert graph.value(iri("Germany"), iri("missing"), None) is None

    def test_literals(self, graph):
        lex = {l.lexical for l in graph.literals()}
        assert lex == {"10", "20"}

    def test_ntriples_roundtrip(self, graph):
        doc = graph.to_ntriples()
        restored = Graph.from_ntriples(doc)
        assert len(restored) == len(graph)
        for triple in graph:
            assert triple in restored

    def test_count_matches_iteration(self, graph):
        for pattern in [
            (None, None, None),
            (iri("obs1"), None, None),
            (None, iri("dim"), None),
            (None, None, iri("Europe")),
            (iri("obs1"), iri("dim"), None),
        ]:
            assert graph.count(*pattern) == len(list(graph.triples(*pattern)))


class TestDataset:
    def test_named_graph_routing(self):
        ds = Dataset()
        name = iri("g1")
        ds.add(Quad(iri("s"), iri("p"), iri("o"), name))
        ds.add(t("s2", "p", "o"))
        assert len(ds.graph(name)) == 1
        assert len(ds.default_graph) == 1
        assert len(ds) == 2

    def test_graph_names_sorted(self):
        ds = Dataset()
        ds.graph(iri("b"))
        ds.graph(iri("a"))
        assert ds.graph_names() == [iri("a"), iri("b")]

    def test_union_view_deduplicates(self):
        ds = Dataset()
        shared = t("s", "p", "o")
        ds.graph(iri("g1")).add(shared)
        ds.graph(iri("g2")).add(shared)
        ds.graph(iri("g2")).add(t("s", "p", "o2"))
        view = ds.union_view()
        assert len(list(view.triples())) == 2
        assert view.count(iri("s"), None, None) == 2

    def test_union_view_missing_graph(self):
        with pytest.raises(KeyError):
            Dataset().union_view([iri("nope")])

    def test_view_requires_graphs(self):
        with pytest.raises(ValueError):
            GraphView([])

    def test_single_graph_view_fast_paths(self):
        g = Graph()
        g.add(t("s", "p", "o"))
        view = GraphView([g])
        assert len(view) == 1
        assert view.count(None, iri("p"), None) == 1
        assert set(view.predicates()) == {iri("p")}


class TestBulkWritesSettle:
    """Every bulk builder leaves sorted runs, not a delta buffer
    (``TripleIndex.settle``), while a small write on a large run stays
    buffered."""

    TRIPLES = [t(f"s{i}", "p", literal_from_python(i)) for i in range(40)]

    @staticmethod
    def settled(graph):
        return graph.triple_index.pure_run(0) is not None

    def test_graph_loaders_settle(self):
        text = Graph(triples=self.TRIPLES).to_ntriples()
        assert self.settled(Graph(triples=self.TRIPLES))
        assert self.settled(Graph.from_ntriples(text))
        assert self.settled(Graph.from_turtle(text))

    def test_cube_and_table_builders_settle(self):
        from repro.datasets import generate_eurostat
        from repro.qb import load_table

        assert self.settled(generate_eurostat(n_observations=30, scale=0.1).graph)
        table = [{"country": "Germany", "year": "2014", "value": "10"},
                 {"country": "France", "year": "2015", "value": "7"}]
        assert self.settled(load_table(table, {"country": None, "year": None},
                                       ["value"]))

    def test_durable_add_all_and_recovery_settle(self, tmp_path):
        directory = str(tmp_path / "store")
        graph = Graph.open_durable(directory, fsync=False)
        graph.add_all(self.TRIPLES)
        assert self.settled(graph)
        graph.close()
        reopened = Graph.open_durable(directory, fsync=False)
        assert reopened.recovery.replayed_records == len(self.TRIPLES)
        assert self.settled(reopened)
        reopened.close()

    def test_load_past_an_automatic_flush_merges_its_tail(self):
        # 40 triples with a floor of 9: the last automatic flush leaves a
        # tail of 4 next to a run of 36, which settle's quarter rule alone
        # would leave buffered.
        graph = Graph(flush_threshold=9)
        graph.add_all(self.TRIPLES)
        assert self.settled(graph)
        endpoint = Endpoint(graph)
        rows = endpoint.select(
            f"SELECT ?s ?o WHERE {{ ?s {iri('p').n3()} ?o . FILTER(isLiteral(?o)) }}")
        assert len(rows) == 40
        assert endpoint.stats.fallback_batch_rows == 0
        # A later small write that flushes nothing stays buffered.
        graph.add_all([t("x", "p", "y")])
        assert graph.triple_index.pending_mutations == 1

    def test_small_writes_on_a_large_run_stay_buffered(self):
        graph = Graph(triples=self.TRIPLES)
        graph.add(t("x", "p", "y"))
        assert not self.settled(graph)
        # 3 pending < 40 // 4: the bulk write does not merge yet...
        graph.add_all([t("x", "p", "z"), t("x", "p", "w")])
        assert graph.triple_index.pending_mutations == 3
        # ...until the pending set reaches a quarter of the run.
        graph.add_all([t("y", "p", f"o{i}") for i in range(7)])
        assert self.settled(graph)
        assert len(graph) == 50
