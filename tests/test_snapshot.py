"""Snapshot persistence tests: round-trip fidelity, laziness, sharing.

Covers the contract of :mod:`repro.store.snapshot`:

* save → load round-trips the exact triple set and the exact terms
  (tagged binary codec — a plain literal and an explicit xsd:string
  literal stay distinct);
* loading is lazy: opening a snapshot materializes no :class:`Node`
  objects, and touching one binding decodes only the terms it needs;
* the loaded graph keeps the writer's epoch and the full statistics
  catalog, and stays writable (delta overlay) unless opened as a
  read-only :class:`SnapshotView`;
* malformed files fail with :class:`SnapshotError`, not mystery unpacks;
* one snapshot file can back several servers at once, read-only.
"""

from __future__ import annotations

import http.client
import json
import urllib.parse

import pytest

from repro.errors import ReadOnlySnapshotError, SnapshotError
from repro.qb import OBSERVATION_CLASS
from repro.rdf import IRI, Literal, Triple
from repro.rdf.terms import BNode
from repro.server import serve_in_thread
from repro.serving import QueryService
from repro.store import Graph, SnapshotTermDictionary, SnapshotView
from repro.store.snapshot import MAGIC, decode_term, encode_term

XSD_STRING = IRI("http://www.w3.org/2001/XMLSchema#string")


def tricky_graph() -> Graph:
    """A small graph exercising every term kind the codec must keep apart."""
    g = Graph(name=IRI("urn:tricky"))
    s = IRI("urn:s")
    g.add(Triple(s, IRI("urn:p"), Literal("x")))
    g.add(Triple(s, IRI("urn:p"), Literal("x", datatype=XSD_STRING)))
    g.add(Triple(s, IRI("urn:p"), Literal("x", language="en")))
    g.add(Triple(s, IRI("urn:p"), Literal("x", language="en-GB")))
    g.add(Triple(s, IRI("urn:num"), Literal("3", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer"))))
    g.add(Triple(BNode("b0"), IRI("urn:p"), Literal("ünïcode ☃")))
    g.add(Triple(s, IRI("urn:empty"), Literal("")))
    return g


class TestTermCodec:
    def test_round_trip_every_kind(self):
        terms = [
            IRI("urn:x"),
            BNode("b1"),
            Literal("plain"),
            Literal(""),
            Literal("plain", language="en"),
            Literal("plain", datatype=XSD_STRING),
            Literal("snow ☃", language="de-AT"),
        ]
        for term in terms:
            assert decode_term(encode_term(term)) == term

    def test_plain_and_xsd_string_encode_differently(self):
        assert encode_term(Literal("x")) != encode_term(Literal("x", datatype=XSD_STRING))

    def test_unknown_tag_raises(self):
        with pytest.raises(SnapshotError):
            decode_term(b"Zoops")


class TestRoundTrip:
    def test_exact_triple_set(self, tmp_path):
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        size = g.save_snapshot(path)
        assert size > 0
        loaded = Graph.load_snapshot(path)
        assert len(loaded) == len(g)
        assert sorted(loaded.triples()) == sorted(g.triples())

    def test_epoch_and_stats_survive(self, tmp_path):
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        g.save_snapshot(path)
        loaded = Graph.load_snapshot(path)
        assert loaded.epoch == g.epoch
        for p in g.predicates():
            assert loaded.predicate_stats(p) == g.predicate_stats(p)
        assert sorted(loaded.predicates()) == sorted(g.predicates())

    def test_uid_is_fresh(self, tmp_path):
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        g.save_snapshot(path)
        a = Graph.load_snapshot(path)
        b = Graph.load_snapshot(path)
        assert len({g.uid, a.uid, b.uid}) == 3

    def test_save_with_pending_delta_and_tombstones(self, tmp_path):
        g = Graph(flush_threshold=4)
        triples = [
            Triple(IRI(f"urn:s{i}"), IRI(f"urn:p{i % 3}"), Literal(str(i)))
            for i in range(20)
        ]
        g.add_all(triples)
        g.remove(triples[3])
        g.remove(triples[17])
        extra = Triple(IRI("urn:late"), IRI("urn:p0"), Literal("late"))
        g.add(extra)
        path = str(tmp_path / "delta.snap")
        g.save_snapshot(path)
        loaded = Graph.load_snapshot(path)
        expected = sorted(t for t in triples + [extra] if t not in (triples[3], triples[17]))
        assert sorted(loaded.triples()) == expected

    def test_empty_graph(self, tmp_path):
        path = str(tmp_path / "empty.snap")
        Graph().save_snapshot(path)
        loaded = Graph.load_snapshot(path)
        assert len(loaded) == 0
        assert list(loaded.triples()) == []
        loaded.add(Triple(IRI("urn:s"), IRI("urn:p"), Literal("v")))
        assert len(loaded) == 1

    def test_loaded_graph_is_writable(self, tmp_path):
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        g.save_snapshot(path)
        loaded = Graph.load_snapshot(path)
        epoch = loaded.epoch
        new = Triple(IRI("urn:new"), IRI("urn:p"), Literal("fresh term"))
        assert loaded.add(new)
        assert new in loaded
        assert loaded.epoch == epoch + 1
        assert loaded.count(None, IRI("urn:p"), None) == g.count(None, IRI("urn:p"), None) + 1
        # Removing a run-resident triple goes through the tombstone path.
        victim = next(g.triples())
        assert loaded.remove(victim)
        assert victim not in loaded
        # And the result can be re-snapshotted.
        path2 = str(tmp_path / "g2.snap")
        loaded.save_snapshot(path2)
        again = Graph.load_snapshot(path2)
        assert sorted(again.triples()) == sorted(loaded.triples())


class TestLazyDecode:
    def test_load_materializes_no_terms(self, tmp_path):
        """Bootstrap is O(file open): no Node objects built at load time."""
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        g.save_snapshot(path)
        loaded = Graph.load_snapshot(path)
        terms = loaded.term_dictionary
        assert isinstance(terms, SnapshotTermDictionary)
        assert terms.materialized_terms == 0
        assert len(loaded) == len(g)  # counting touches no terms
        assert terms.materialized_terms == 0

    def test_targeted_query_decodes_only_what_it_touches(self, tmp_path):
        g = Graph()
        for i in range(500):
            g.add(Triple(IRI(f"urn:s{i}"), IRI("urn:p"), Literal(str(i))))
        path = str(tmp_path / "big.snap")
        g.save_snapshot(path)
        loaded = Graph.load_snapshot(path)
        terms = loaded.term_dictionary
        probe = Triple(IRI("urn:s42"), IRI("urn:p"), Literal("42"))
        assert probe in loaded
        # A fully-bound probe needs lookups (id from bytes), not decodes.
        assert terms.materialized_terms < 5
        got = list(loaded.triples(IRI("urn:s123"), IRI("urn:p"), None))
        assert got == [Triple(IRI("urn:s123"), IRI("urn:p"), Literal("123"))]
        assert terms.materialized_terms < 10, "full-scan decode leaked in"

    def test_decode_is_memoized(self, tmp_path):
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        g.save_snapshot(path)
        terms = Graph.load_snapshot(path).term_dictionary
        first = terms.decode(0)
        assert terms.decode(0) is first


class TestSnapshotView:
    def test_rejects_all_mutation(self, tmp_path):
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        g.save_snapshot(path)
        view = Graph.load_snapshot(path, readonly=True)
        assert isinstance(view, SnapshotView)
        t = Triple(IRI("urn:s"), IRI("urn:p"), Literal("nope"))
        with pytest.raises(ReadOnlySnapshotError):
            view.add(t)
        with pytest.raises(ReadOnlySnapshotError):
            view.add_all([t])
        with pytest.raises(ReadOnlySnapshotError):
            view.remove(next(g.triples()))
        assert view.epoch == g.epoch
        assert sorted(view.triples()) == sorted(g.triples())

    def test_open_classmethod(self, tmp_path):
        g = tricky_graph()
        path = str(tmp_path / "g.snap")
        g.save_snapshot(path)
        view = SnapshotView.open(path, name=IRI("urn:view"))
        assert view.name == IRI("urn:view")
        assert len(view) == len(g)


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            Graph.load_snapshot(str(tmp_path / "nope.snap"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_bytes(b"NOTASNAP\x00\x00" + b"\x00" * 400)
        with pytest.raises(SnapshotError, match="magic"):
            Graph.load_snapshot(str(path))

    def test_bad_version(self, tmp_path):
        g = tricky_graph()
        path = tmp_path / "v.snap"
        g.save_snapshot(str(path))
        data = bytearray(path.read_bytes())
        data[10:12] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="version"):
            Graph.load_snapshot(str(path))

    def test_truncated_file(self, tmp_path):
        g = tricky_graph()
        path = tmp_path / "t.snap"
        g.save_snapshot(str(path))
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(SnapshotError):
            Graph.load_snapshot(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "zero.snap"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError):
            Graph.load_snapshot(str(path))


# -- shared snapshot serving -------------------------------------------------


def _http_select(handle, query: str) -> dict:
    params = urllib.parse.urlencode({"query": query})
    conn = http.client.HTTPConnection(handle.server.host, handle.server.port, timeout=30)
    try:
        conn.request("GET", f"/sparql?{params}")
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, body
        return json.loads(body)
    finally:
        conn.close()


class TestSharedSnapshotServing:
    def test_two_servers_share_one_snapshot_file(self, mini_kg, tmp_path):
        """Two server instances over one read-only snapshot answer
        identically to the in-process graph — no copies, no interference."""
        path = str(tmp_path / "mini.snap")
        mini_kg.graph.save_snapshot(path)

        from repro.store import Endpoint

        views = [Graph.load_snapshot(path, readonly=True) for _ in range(2)]
        assert all(isinstance(v, SnapshotView) for v in views)
        handles = [
            serve_in_thread(QueryService(Endpoint(view), workers=2), own_service=True)
            for view in views
        ]
        try:
            query = (
                f"SELECT ?s WHERE {{ ?s a <{OBSERVATION_CLASS}> }} "
                "ORDER BY ?s LIMIT 25"
            )
            documents = [_http_select(h, query) for h in handles]
            assert documents[0] == documents[1]
            reference = Endpoint(mini_kg.graph).select(query)
            assert len(documents[0]["results"]["bindings"]) == min(25, len(reference))
        finally:
            for handle in handles:
                handle.close()
        # The file stayed a pristine read-only source throughout.
        reread = Graph.load_snapshot(path)
        assert len(reread) == len(mini_kg.graph)
