"""The bulk load path against the per-triple path it replaces.

``Graph.from_ntriples`` scans lines with one regex and encodes straight
into id columns, and ``Graph.add_all`` merges a large batch into sorted
runs in one step.  The oracle here is what both did before: parse each
line term by term with :func:`parse_term`, then ``Graph.add`` one
:class:`Triple` at a time.  The two must build the same
dictionary, runs, catalog (in row order), epoch and snapshot bytes, and
fail on the same line with the same message.

The text index reads a graph's id rows instead of walking its triples;
it must come out equal, insertion order included, on every graph kind.
"""

import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RDFSyntaxError
from repro.rdf import IRI, BNode, Literal, Triple
from repro.rdf.ntriples import parse_ntriples, parse_term
from repro.store import Graph, TextIndex
from repro.store.dataset import GraphView
from repro.store.snapshot import SnapshotView

XSD_INT = "<http://www.w3.org/2001/XMLSchema#integer>"

iris = st.integers(0, 4).map(lambda i: f"<urn:t{i}>")
bnodes = st.sampled_from(["_:b1", "_:b.x", "_:z_9"])
# "A" and "A" are one term; so are the two language tag cases.
literals = st.sampled_from([
    '"A"', '"\\u0041"', '"x"@en', '"x"@EN', '"x"@en-US', f'"1"^^{XSD_INT}',
    '"01"^^<urn:t1>', '"a\\"b"', '"tab\\t"', '""', '"Germany 2013"',
    '"\\U0001F600"',
])
separators = st.sampled_from(["", " ", "\t", "  "])
# Lines the per-triple parser rejects, one fault each.
malformed = st.sampled_from([
    '"x" <urn:p> <urn:o> .',          # literal subject
    "<urn:s> _:p <urn:o> .",          # blank node predicate
    "<urn:s> <urn:p> <urn:o>",        # no terminating dot
    "<urn:s> <urn:p> <urn:o> . junk",
    "<urn:s> <urn:p> <urn:o> . .",
    "<urn:s> <urn:p> _:o.",           # the dot belongs to the label
    '<urn:s> <urn:p> "\\q" .',        # unknown escape
    "<urn:s <urn:p> <urn:o> .",
    "<> <urn:p> <urn:o> .",           # empty IRI
    '<urn:s> <urn:p> "x"@toolongtag .',
    "<urn:s> <urn:p> ?o .",
])


@st.composite
def triple_lines(draw, separators=separators):
    s = draw(st.one_of(iris, bnodes))
    p = draw(iris)
    o = draw(st.one_of(iris, bnodes, literals))
    gaps = [draw(separators) for _ in range(3)]
    tail = draw(st.sampled_from(["", " # note", "#"]))
    return f"{s}{gaps[0]}{p}{gaps[1]}{o}{gaps[2]}.{tail}"


well_formed_lines = triple_lines(st.just(" "))
lines = st.one_of(
    triple_lines(), triple_lines(), triple_lines(), triple_lines(),
    st.sampled_from(["", "   ", "# a comment"]),
    malformed,
)


@st.composite
def documents(draw):
    body = draw(st.lists(lines, max_size=25))
    if draw(st.booleans()):
        body += body[: draw(st.integers(0, len(body)))]  # repeated lines
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(body) + (newline if draw(st.booleans()) else "")


def oracle_triples(document: str) -> list[Triple]:
    """The term-by-term parse every line went through before."""
    out = []
    for lineno, raw in enumerate(document.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        s, rest = parse_term(stripped, lineno)
        p, rest = parse_term(rest, lineno)
        if not isinstance(p, IRI):
            raise RDFSyntaxError("predicate must be an IRI", lineno)
        o, rest = parse_term(rest, lineno)
        if not rest.startswith("."):
            raise RDFSyntaxError("missing terminating '.'", lineno)
        trailing = rest[1:].strip()
        if trailing and not trailing.startswith("#"):
            raise RDFSyntaxError(f"unexpected content after '.': {trailing!r}", lineno)
        try:
            out.append(Triple(s, p, o))
        except TypeError as exc:
            raise RDFSyntaxError(str(exc), lineno) from exc
    return out


def oracle_add_all(graph: Graph, triples) -> int:
    """``add_all`` as it was: one ``Graph.add`` per triple."""
    return sum(1 for triple in triples if Graph.add(graph, triple))


def outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the same failure, whatever its type
        return "error", (type(exc), str(exc), getattr(exc, "line", None))


def snapshot_bytes(graph: Graph) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "g.snap")
        graph.save_snapshot(path)
        with open(path, "rb") as handle:
            return handle.read()


def state(graph: Graph) -> dict:
    """Everything a bulk load decides, the runs read after a flush."""
    index = graph.triple_index
    before = list(index.predicate_stat_rows())
    index.flush()
    return {
        "terms": list(graph.term_dictionary.terms()),
        "len": len(graph),
        "epoch": graph.epoch,
        "catalog": before,
        "catalog_flushed": list(index.predicate_stat_rows()),
        "runs": [tuple(map(tuple, (run.a, run.b, run.c, run.starts)))
                 for run in index.runs],
        "snapshot": snapshot_bytes(graph),
    }


class TestBulkLoadMatchesPerTriple:
    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_from_ntriples(self, document):
        expected = outcome(lambda: oracle_triples(document))
        assert outcome(lambda: list(parse_ntriples(document))) == expected
        assert outcome(lambda: list(parse_ntriples(io.StringIO(document)))) == expected
        loaded = outcome(lambda: Graph.from_ntriples(document))
        if expected[0] == "error":
            assert loaded == expected
            return
        oracle = Graph()
        oracle_add_all(oracle, expected[1])
        assert loaded[0] == "ok"
        assert state(loaded[1]) == state(oracle)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(well_formed_lines, min_size=1, max_size=30),
        st.data(),
    )
    def test_add_all_onto_delta_and_tombstones(self, base_lines, data):
        base = oracle_triples("\n".join(base_lines))
        removed = data.draw(st.lists(st.sampled_from(base), max_size=8))
        extra = oracle_triples("\n".join(data.draw(st.lists(well_formed_lines, max_size=8))))
        batch = oracle_triples("\n".join(data.draw(st.lists(well_formed_lines, max_size=40))))
        batch += data.draw(st.lists(st.sampled_from(base), max_size=6))  # resurrections

        def build() -> Graph:
            graph = Graph()
            graph.add_all(base)
            for triple in removed:
                graph.remove(triple)  # tombstones
            for triple in extra:
                graph.add(triple)  # level-0 rows
            return graph

        bulk, oracle = build(), build()
        assert bulk.add_all(iter(batch)) == oracle_add_all(oracle, batch)
        assert state(bulk) == state(oracle)

    def test_failing_iterator_keeps_the_prefix(self):
        triples = oracle_triples('<urn:s> <urn:p> "1" .\n<urn:s> <urn:p> "2" .')

        def stream():
            yield from triples
            raise RuntimeError("source failed")

        graph = Graph()
        try:
            graph.add_all(stream())
        except RuntimeError:
            pass
        assert set(graph.triples()) == set(triples)
        assert graph.epoch == 2


def walked_text_index(graph) -> TextIndex:
    """The triple walk the id-row build replaces."""
    index = TextIndex()
    for triple in graph.triples():
        if isinstance(triple.o, Literal):
            index.index_triple(triple.s, triple.p, triple.o)
    return index


def text_index_state(index: TextIndex) -> tuple:
    def ordered(mapping):
        return [(key, list(values)) for key, values in mapping.items()]

    return (len(index), ordered(index._by_token), ordered(index._by_exact),
            ordered(index._occurrences))


subjects = st.one_of(st.integers(0, 5).map(lambda i: IRI(f"urn:s{i}")),
                     st.sampled_from([BNode("b1"), BNode("b2")]))
predicates = st.integers(0, 3).map(lambda i: IRI(f"urn:p{i}"))
objects = st.one_of(
    st.integers(0, 5).map(lambda i: IRI(f"urn:s{i}")),
    st.sampled_from([Literal("Germany"), Literal("germany", language="en"),
                     Literal("2013", datatype=IRI("urn:year")),
                     Literal("New York City"), Literal("")]),
    st.integers(0, 30).map(lambda i: Literal(f"member {i}")),
)
triple_lists = st.lists(st.builds(Triple, subjects, predicates, objects), max_size=40)


class TestTextIndexFromIdRows:
    @settings(max_examples=60, deadline=None)
    @given(triple_lists, triple_lists)
    def test_equal_to_the_triple_walk(self, first, second):
        graph = Graph(triples=first)
        for triple in first[::4]:
            graph.remove(triple)  # tombstones
        graph.add_all(second[:3])  # stays in level 0 on a large enough run

        def check(source) -> None:
            built = text_index_state(TextIndex.from_graph(source))
            assert built == text_index_state(walked_text_index(source))

        check(graph)
        check(GraphView([graph]))
        check(GraphView([Graph(triples=first), Graph(triples=second)]))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "g.snap")
            graph.save_snapshot(path)
            check(SnapshotView.open(path))
            with Graph.open_durable(os.path.join(directory, "store"),
                                    fsync=False) as durable:
                durable.add_all(first)
                durable.add_all(second)
                check(durable)
