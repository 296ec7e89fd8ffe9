"""A dataset of named graphs, mirroring a triplestore's storage layout.

The paper's server is pointed at a SPARQL endpoint plus "the list of named
graphs to query".  :class:`Dataset` reproduces that: it holds a default
graph and any number of named graphs and offers a *union view* over a
selection of them, which is what the query engine evaluates against.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..rdf.terms import IRI, Literal, Node
from ..rdf.triple import Quad, Triple
from .graph import Graph
from .index import PredicateStats

__all__ = ["Dataset", "GraphView"]


class GraphView:
    """A read-only union view over several graphs.

    Implements the subset of the :class:`Graph` API the evaluator needs, so
    queries can run transparently against one graph or a union of named
    graphs.  Duplicate triples across member graphs are deduplicated during
    iteration.
    """

    __slots__ = ("_graphs",)

    def __init__(self, graphs: Iterable[Graph]):
        self._graphs = tuple(graphs)
        if not self._graphs:
            raise ValueError("GraphView requires at least one graph")

    @property
    def epoch(self) -> int:
        """Aggregate version counter: the sum of the member graphs' epochs.

        Member epochs never decrease, so the sum is monotonic and changes
        whenever any member graph mutates — which is all the serving cache
        needs for invalidation.
        """
        return sum(g.epoch for g in self._graphs)

    @property
    def uid(self) -> tuple[int, ...]:
        """Identity of the view: the member graphs' :attr:`Graph.uid` values.

        Cache keys combine this with :attr:`epoch` so results computed
        over one view are never served for a different one.
        """
        return tuple(g.uid for g in self._graphs)

    def backing_graph(self) -> Graph | None:
        """The single member graph, or None for a genuine multi-graph union.

        Single-member views (the common case: a dataset queried through its
        default graph) expose their member so the compiled id-space engine
        can execute directly against its dictionary and indexes; unions of
        several graphs have no shared id space and fall back to term-space
        evaluation.
        """
        return self._graphs[0] if len(self._graphs) == 1 else None

    def __len__(self) -> int:
        if len(self._graphs) == 1:
            return len(self._graphs[0])
        return sum(1 for _ in self.triples())

    def __contains__(self, triple: Triple) -> bool:
        return any(triple in g for g in self._graphs)

    def triples(self, s: Node | None = None, p: IRI | None = None, o: Node | None = None) -> Iterator[Triple]:
        if len(self._graphs) == 1:
            yield from self._graphs[0].triples(s, p, o)
            return
        seen: set[Triple] = set()
        for graph in self._graphs:
            for triple in graph.triples(s, p, o):
                if triple not in seen:
                    seen.add(triple)
                    yield triple

    def count(self, s: Node | None = None, p: IRI | None = None, o: Node | None = None) -> int:
        if len(self._graphs) == 1:
            return self._graphs[0].count(s, p, o)
        return sum(1 for _ in self.triples(s, p, o))

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
        seen: set[IRI] = set()
        for graph in self._graphs:
            for predicate in graph.predicates():
                if predicate not in seen:
                    seen.add(predicate)
                    yield predicate

    def predicate_cardinality(self, p: IRI) -> int:
        return sum(g.predicate_cardinality(p) for g in self._graphs)

    def predicate_stats(self, p: IRI) -> PredicateStats:
        """Summed member statistics (an upper bound for the union view)."""
        if len(self._graphs) == 1:
            return self._graphs[0].predicate_stats(p)
        triples = subjects = objects = 0
        for graph in self._graphs:
            stats = graph.predicate_stats(p)
            triples += stats.triples
            subjects += stats.distinct_subjects
            objects += stats.distinct_objects
        return PredicateStats(triples, subjects, objects)

    def literals(self) -> Iterator[Literal]:
        seen: set[Literal] = set()
        for graph in self._graphs:
            for literal in graph.literals():
                if literal not in seen:
                    seen.add(literal)
                    yield literal

    def value(self, s: Node | None = None, p: IRI | None = None, o: Node | None = None):
        for triple in self.triples(s, p, o):
            if s is None:
                return triple.s
            if p is None:
                return triple.p
            return triple.o
        return None


class Dataset:
    """A default graph plus named graphs, addressable by IRI."""

    __slots__ = ("_default", "_named")

    def __init__(self) -> None:
        self._default = Graph()
        self._named: dict[IRI, Graph] = {}

    @property
    def default_graph(self) -> Graph:
        return self._default

    @property
    def epoch(self) -> int:
        """Aggregate version counter over the default and all named graphs."""
        return self._default.epoch + sum(g.epoch for g in self._named.values())

    def graph(self, name: IRI | None = None) -> Graph:
        """The graph with the given name, creating it on first access."""
        if name is None:
            return self._default
        existing = self._named.get(name)
        if existing is None:
            existing = Graph(name=name)
            self._named[name] = existing
        return existing

    def graph_names(self) -> list[IRI]:
        return sorted(self._named, key=lambda iri: iri.value)

    def add(self, item: Triple | Quad) -> bool:
        """Route a quad to its named graph, a plain triple to the default."""
        if isinstance(item, Quad):
            return self.graph(item.graph).add(item.triple())
        return self._default.add(item)

    def union_view(self, names: Iterable[IRI] | None = None, include_default: bool = True) -> GraphView:
        """A union view over selected named graphs (default: all of them)."""
        graphs: list[Graph] = []
        if include_default:
            graphs.append(self._default)
        selected = list(names) if names is not None else self.graph_names()
        for name in selected:
            graph = self._named.get(name)
            if graph is None:
                raise KeyError(f"no named graph {name.n3()}")
            graphs.append(graph)
        return GraphView(graphs)

    def __len__(self) -> int:
        return len(self._default) + sum(len(g) for g in self._named.values())

    # -- I/O ----------------------------------------------------------------

    @classmethod
    def from_nquads(cls, source) -> "Dataset":
        """Load a dataset from an N-Quads document (string or open file)."""
        from ..rdf.nquads import parse_nquads

        dataset = cls()
        batches: dict[IRI | None, list[Triple]] = {}
        for item in parse_nquads(source):
            if isinstance(item, Quad):
                batches.setdefault(item.graph, []).append(item.triple())
            else:
                batches.setdefault(None, []).append(item)
        for name, triples in batches.items():
            dataset.graph(name).add_all(triples)
        return dataset

    def to_nquads(self, out=None) -> str | None:
        """Serialize all graphs as N-Quads (default graph first)."""
        from ..rdf.nquads import serialize_nquads
        from ..rdf.triple import Quad

        def items():
            yield from sorted(self._default.triples())
            for name in self.graph_names():
                for triple in sorted(self._named[name].triples()):
                    yield Quad(triple.s, triple.p, triple.o, name)

        return serialize_nquads(items(), out)

    def __repr__(self) -> str:
        return f"<Dataset: {len(self._named)} named graphs, {len(self)} triples>"
