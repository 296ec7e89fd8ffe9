"""Full-text index over literals, standing in for Virtuoso's text index.

The paper resolves user keywords to IRIs via "a traditional full-text
index" on the triplestore (Section 7.1).  This module provides the same
capability: an inverted index from lowercase word tokens to the literal
terms containing them, plus a reverse map from each literal to the
(subject, predicate) pairs it labels.  Lookups support exact-phrase match,
all-token conjunctive match, and prefix match.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Iterator

from ..rdf.terms import IRI, BNode, Literal, Node

__all__ = ["TextIndex", "tokenize"]

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens of ``text`` (letters and digits only).

    >>> tokenize("Country of Origin")
    ['country', 'of', 'origin']
    """
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def _literal_rows(graph) -> Iterator[tuple[Node, IRI, Literal]]:
    """``graph``'s ⟨s, p, literal⟩ triples in its triple order.

    A graph, or a view backed by one, is read as id rows: each distinct
    object id is tested for literal kind once, and only the literal rows
    are decoded.  A multi-graph union has no shared id space, so it walks
    its triples.
    """
    backing = graph.backing_graph() if hasattr(graph, "backing_graph") else graph
    store = getattr(backing, "triple_index", None)
    if store is None:
        for triple in graph.triples():
            if isinstance(triple.o, Literal):
                yield triple.s, triple.p, triple.o
        return
    decode = backing.term_dictionary.decode
    literal_ids: dict[int, bool] = {}
    for s, p, o in store.match(None, None, None):
        is_literal = literal_ids.get(o)
        if is_literal is None:
            is_literal = literal_ids[o] = isinstance(decode(o), Literal)
        if is_literal:
            yield decode(s), decode(p), decode(o)


class TextIndex:
    """Inverted index over literal objects of a graph.

    Build it once from a graph (or keep it updated with :meth:`index_triple`)
    and then resolve keywords with :meth:`search`.
    """

    __slots__ = ("_by_token", "_by_exact", "_occurrences", "_literal_count")

    def __init__(self) -> None:
        # token -> set of literals containing it
        self._by_token: dict[str, set[Literal]] = defaultdict(set)
        # normalized full text -> set of literals with exactly that text
        self._by_exact: dict[str, set[Literal]] = defaultdict(set)
        # literal -> set of (subject, predicate) pairs where it occurs
        self._occurrences: dict[Literal, set[tuple[Node, IRI]]] = defaultdict(set)
        self._literal_count = 0

    def __len__(self) -> int:
        """Number of distinct indexed literals."""
        return self._literal_count

    @classmethod
    def from_graph(cls, graph) -> "TextIndex":
        """Index every ⟨s, p, literal⟩ triple of ``graph`` (or graph view)."""
        index = cls()
        for subject, predicate, literal in _literal_rows(graph):
            index.index_triple(subject, predicate, literal)
        return index

    def index_triple(self, subject: Node, predicate: IRI, literal: Literal) -> None:
        """Add one literal occurrence to the index."""
        if literal not in self._occurrences:
            self._literal_count += 1
            tokens = tokenize(literal.lexical)
            for token in tokens:
                self._by_token[token].add(literal)
            self._by_exact[" ".join(tokens)].add(literal)
        self._occurrences[literal].add((subject, predicate))

    # -- lookup -------------------------------------------------------------

    def search_exact(self, keyword: str) -> set[Literal]:
        """Literals whose full normalized text equals the keyword's."""
        return set(self._by_exact.get(" ".join(tokenize(keyword)), ()))

    def search_tokens(self, keyword: str) -> set[Literal]:
        """Literals containing *all* tokens of ``keyword`` (conjunctive)."""
        tokens = tokenize(keyword)
        if not tokens:
            return set()
        result: set[Literal] | None = None
        for token in tokens:
            hits = self._by_token.get(token)
            if not hits:
                return set()
            result = set(hits) if result is None else result & hits
            if not result:
                return set()
        return result or set()

    def search(self, keyword: str, exact: bool = True) -> set[Literal]:
        """Resolve a user keyword to matching literals.

        Tries an exact (normalized) match first — the common case for
        dimension-member labels like "Germany" — and falls back to the
        conjunctive token match when nothing matches exactly, mimicking a
        triplestore text index queried with a quoted phrase then with bare
        terms.  Set ``exact=False`` to go straight to token matching.
        """
        if exact:
            hits = self.search_exact(keyword)
            if hits:
                return hits
        return self.search_tokens(keyword)

    def search_prefix(self, prefix: str, limit: int | None = None) -> set[Literal]:
        """Literals having at least one token starting with ``prefix``."""
        normalized = prefix.lower()
        result: set[Literal] = set()
        for token, literals in self._by_token.items():
            if token.startswith(normalized):
                result.update(literals)
                if limit is not None and len(result) >= limit:
                    break
        return result

    def occurrences(self, literal: Literal) -> set[tuple[Node, IRI]]:
        """All (subject, predicate) pairs under which ``literal`` is stored."""
        return set(self._occurrences.get(literal, ()))

    def subjects_matching(self, keyword: str, exact: bool = True) -> Iterator[tuple[Node, IRI, Literal]]:
        """Yield (subject, predicate, literal) for every keyword occurrence.

        This is the resolution step of Algorithm 1, line 3: given a user
        keyword, find the entities it may describe together with the
        attribute predicate linking them.
        """
        for literal in sorted(self.search(keyword, exact=exact), key=lambda l: l.sort_key()):
            for subject, predicate in sorted(
                self._occurrences[literal],
                key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()),
            ):
                yield subject, predicate, literal

    def scan_search(self, graph, keyword: str) -> set[Literal]:
        """Linear-scan fallback used by the text-index ablation benchmark.

        Performs the same exact-then-token match as :meth:`search` but by
        scanning every literal in ``graph``, i.e. what resolution costs
        without a full-text index.
        """
        wanted = " ".join(tokenize(keyword))
        exact_hits: set[Literal] = set()
        token_hits: set[Literal] = set()
        wanted_tokens = set(tokenize(keyword))
        for literal in graph.literals():
            tokens = tokenize(literal.lexical)
            if " ".join(tokens) == wanted:
                exact_hits.add(literal)
            elif wanted_tokens and wanted_tokens.issubset(tokens):
                token_hits.add(literal)
        return exact_hits or token_hits
