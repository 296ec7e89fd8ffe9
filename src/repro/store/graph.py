"""The :class:`Graph` class: a dictionary-encoded, indexed RDF graph.

This is the storage unit the SPARQL engine evaluates against.  It exposes
the pattern-matching API (``triples``, ``subjects``, ``objects``, ...) in
terms of RDF terms, delegating id encoding to :class:`TermDictionary` and
index maintenance to :class:`TripleIndex`.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import IO, Iterable, Iterator

from ..rdf.ntriples import parse_ntriples_ids, serialize_ntriples
from ..rdf.terms import IRI, Literal, Node
from ..rdf.triple import Triple
from ..rdf.turtle import parse_turtle
from .index import (
    DEFAULT_FLUSH_THRESHOLD,
    PredicateStats,
    TermDictionary,
    TripleIndex,
)

__all__ = ["Graph"]

#: Pattern wildcard accepted by all matching methods.
_WILD = None


class Graph:
    """An in-memory RDF graph with SPO/POS/OSP indexes.

    >>> g = Graph()
    >>> from repro.rdf import IRI, Literal
    >>> _ = g.add(Triple(IRI("urn:s"), IRI("urn:p"), Literal("x")))
    >>> len(g)
    1
    """

    __slots__ = ("name", "_terms", "_index", "_epoch", "_uid")

    #: Process-wide instance counter backing :attr:`uid`.
    _uids = count()

    def __init__(
        self,
        name: IRI | None = None,
        triples: Iterable[Triple] | None = None,
        *,
        flush_threshold: int | None = None,
    ):
        self.name = name
        self._terms = TermDictionary()
        if flush_threshold is None:
            flush_threshold = DEFAULT_FLUSH_THRESHOLD
        self._index = TripleIndex(flush_threshold)
        self._epoch = 0
        self._uid = next(Graph._uids)
        if triples is not None:
            self.add_all(triples)

    # -- durability --------------------------------------------------------

    @classmethod
    def open_durable(cls, directory: str, **kwargs) -> "Graph":
        """Open (or create) a crash-safe graph rooted at ``directory``.

        Returns a :class:`~repro.store.durable.DurableGraph`: every
        ``add``/``remove`` is written to a checksummed write-ahead log
        before touching the index, and ``checkpoint()`` dumps atomic
        snapshot generations.  After a crash, reopening the same
        directory recovers every acknowledged write.  See
        :mod:`repro.store.durable` for options (``fsync``, ``retain``,
        ``auto_checkpoint``, ...).
        """
        from .durable import DurableGraph

        return DurableGraph.open(directory, **kwargs)

    # -- versioning -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotonic version counter, bumped on every successful mutation.

        The serving layer keys cached query results by this value, so any
        ``add``/``remove``/bulk load invalidates stale entries without the
        cache having to watch the graph (see :mod:`repro.serving.cache`).
        """
        return self._epoch

    @property
    def uid(self) -> int:
        """Process-unique, never-reused instance identity.

        Cache keys need an identity component alongside :attr:`epoch`: a
        cache shared by endpoints over two distinct graphs must keep their
        entries apart, two graphs can share an epoch value, and ``id()``
        can be recycled after garbage collection.
        """
        return self._uid

    # -- id-space access ---------------------------------------------------

    @property
    def term_dictionary(self) -> TermDictionary:
        """The term↔id dictionary, for id-space query execution."""
        return self._terms

    @property
    def triple_index(self):
        """The id-level permutation indexes, for id-space query execution."""
        return self._index

    # -- mutation ---------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns False if it was already present."""
        added = self._index.add(
            self._terms.encode(triple.s),
            self._terms.encode(triple.p),
            self._terms.encode(triple.o),
        )
        if added:
            self._epoch += 1
        return added

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number actually added.

        The terms are encoded into three id columns and inserted in one
        :meth:`TripleIndex.add_batch`: one sorted merge, into level 0 or,
        for a load that is large next to the graph, into the main runs.
        If ``triples`` raises, the triples before the failing one are
        still added.  A subclass that overrides :meth:`add` alone sees
        every triple of a bulk write through it.
        """
        if type(self).add is not Graph.add:
            return sum(1 for triple in triples if self.add(triple))
        columns = (array("q"), array("q"), array("q"))
        try:
            self._encode_all(triples, columns)
        finally:
            added = self._add_ids(*columns)
        return added

    def _encode_all(self, triples: Iterable[Triple], columns) -> None:
        """Append the term ids of ``triples`` to three id columns."""
        encode = self._terms.encode
        add_s, add_p, add_o = (col.append for col in columns)
        for triple in triples:
            add_s(encode(triple.s))
            add_p(encode(triple.p))
            add_o(encode(triple.o))

    def _add_ids(self, s, p, o) -> int:
        """Insert id columns; every bulk write ends here."""
        added = self._index.add_batch(s, p, o)
        self._epoch += added
        return added

    def remove(self, triple: Triple) -> bool:
        """Delete a triple; returns False if it was not present."""
        ids = self._encode_pattern(triple.s, triple.p, triple.o)
        if ids is None:
            return False
        removed = self._index.remove(*ids)
        if removed:
            self._epoch += 1
        return removed

    # -- lookup -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, triple: Triple) -> bool:
        ids = self._encode_pattern(triple.s, triple.p, triple.o)
        return ids is not None and self._index.contains(*ids)

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def _encode_pattern(self, s, p, o) -> tuple[int, int, int] | None:
        """Encode fully-bound positions; None if any bound term is unseen."""
        result = []
        for term in (s, p, o):
            if term is _WILD:
                result.append(None)
                continue
            term_id = self._terms.lookup(term)
            if term_id is None:
                return None
            result.append(term_id)
        return tuple(result)  # type: ignore[return-value]

    def triples(
        self, s: Node | None = None, p: IRI | None = None, o: Node | None = None
    ) -> Iterator[Triple]:
        """Iterate triples matching the pattern; ``None`` is a wildcard."""
        ids = self._encode_pattern(s, p, o)
        if ids is None:
            return
        decode = self._terms.decode
        for sid, pid, oid in self._index.match(*ids):
            yield Triple(decode(sid), decode(pid), decode(oid))

    def count(self, s: Node | None = None, p: IRI | None = None, o: Node | None = None) -> int:
        """Cardinality of a pattern without materializing the matches."""
        ids = self._encode_pattern(s, p, o)
        if ids is None:
            return 0
        return self._index.count(*ids)

    def subjects(self, p: IRI | None = None, o: Node | None = None) -> Iterator[Node]:
        seen: set[Node] = set()
        for triple in self.triples(None, p, o):
            if triple.s not in seen:
                seen.add(triple.s)
                yield triple.s

    def objects(self, s: Node | None = None, p: IRI | None = None) -> Iterator[Node]:
        seen: set[Node] = set()
        for triple in self.triples(s, p, None):
            if triple.o not in seen:
                seen.add(triple.o)
                yield triple.o

    def predicates(self) -> Iterator[IRI]:
        """All distinct predicates in the graph."""
        for pid in self._index.predicates():
            term = self._terms.decode(pid)
            assert isinstance(term, IRI)
            yield term

    def predicate_cardinality(self, p: IRI) -> int:
        pid = self._terms.lookup(p)
        return 0 if pid is None else self._index.predicate_cardinality(pid)

    def predicate_stats(self, p: IRI) -> PredicateStats:
        """Catalog statistics for a predicate (zeros when unseen)."""
        pid = self._terms.lookup(p)
        if pid is None:
            return PredicateStats(0, 0, 0)
        return self._index.predicate_stats(pid)

    def value(self, s: Node | None = None, p: IRI | None = None, o: Node | None = None):
        """The single unbound position of a pattern with exactly one match.

        Returns ``None`` when there is no match; the first (arbitrary) match
        when there are several.
        """
        for triple in self.triples(s, p, o):
            if s is None:
                return triple.s
            if p is None:
                return triple.p
            return triple.o
        return None

    def literals(self) -> Iterator[Literal]:
        """All distinct literal terms stored in the graph."""
        for term in self._terms.terms():
            if isinstance(term, Literal):
                yield term

    # -- I/O ----------------------------------------------------------------

    def save_snapshot(self, path: str) -> int:
        """Dump the graph to a columnar snapshot file; returns its size.

        The file loads back in O(file open) via :meth:`load_snapshot` —
        see :mod:`repro.store.snapshot` for the format.
        """
        from .snapshot import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load_snapshot(
        cls, path: str, *, name: IRI | None = None, readonly: bool = False
    ) -> "Graph":
        """Open a snapshot as a graph backed by the mmap'd file.

        The returned graph is writable (new triples land in level 0;
        the mapped runs are never modified) unless
        ``readonly=True``, which gives an epoch-pinned
        :class:`~repro.store.snapshot.SnapshotView` shareable across
        threads and processes.
        """
        from .snapshot import load_snapshot

        return load_snapshot(path, name=name, readonly=readonly)

    @classmethod
    def from_ntriples(cls, source: str | IO[str], name: IRI | None = None) -> "Graph":
        """Load an N-Triples document with no :class:`Triple` per line."""
        graph = cls(name=name)
        graph._add_ids(*parse_ntriples_ids(source, graph._terms.encode))
        return graph

    @classmethod
    def from_turtle(cls, text: str, name: IRI | None = None) -> "Graph":
        return cls(name=name, triples=parse_turtle(text))

    def to_ntriples(self, out: IO[str] | None = None) -> str | None:
        return serialize_ntriples(sorted(self.triples()), out)

    def __repr__(self) -> str:
        label = self.name.n3() if self.name else "default"
        return f"<Graph {label}: {len(self)} triples>"
