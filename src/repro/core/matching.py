"""Keyword → dimension-member interpretation matching (Algorithm 1, MATCHES).

Each component of the user's example tuple is a literal value (e.g.
``"Germany"``, ``"2014"``).  Resolution proceeds exactly as Section 5.1
describes:

1. the keyword is resolved to matching literals via the endpoint's
   full-text index, yielding candidate entities and the attribute
   predicates linking them to the literal;
2. the entity's *incoming* predicates are retrieved and checked against
   the virtual schema graph: every level whose terminal predicate matches
   is a candidate interpretation (the same country entity is a member of
   both the origin and the destination level — hence multiple
   interpretations per keyword);
3. each candidate is validated with an ASK probe confirming at least one
   observation reaches the member through the level's full path — the
   correctness guarantee of Section 5.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rdf.namespace import RDF
from ..rdf.terms import IRI, Literal, Node, Variable
from ..sparql.builder import ask, path
from ..store.endpoint import Endpoint
from .virtual_graph import VLevel, VirtualSchemaGraph

__all__ = ["Interpretation", "find_interpretations"]


@dataclass(frozen=True)
class Interpretation:
    """One way to read a user keyword: a member of a specific level."""

    keyword: str
    literal: Literal
    member: IRI
    attribute_predicate: IRI
    level: VLevel

    def __repr__(self) -> str:
        return f"<Interpretation {self.keyword!r} -> {self.member.local_name()} @ {self.level.label}>"


def find_interpretations(
    endpoint: Endpoint,
    vgraph: VirtualSchemaGraph,
    keyword: str,
    validate: bool = True,
    exact: bool = True,
) -> list[Interpretation]:
    """All validated interpretations of ``keyword`` (Algorithm 1, lines 2-5).

    The keyword is normally resolved through the full-text index over
    member attributes; the paper's footnote 3 also supports *mixed*
    queries naming dimension members directly, so a keyword of the form
    ``<iri>`` (or any IRI present in the graph) is taken as the member
    itself, bypassing label matching.

    ``validate=False`` skips the ASK probes (used by the ablation study on
    validation cost); interpretations are then structural candidates only.
    Results are deterministic: sorted by (member, level path).
    """
    interpretations: list[Interpretation] = []
    seen: set[tuple[IRI, tuple[IRI, ...]]] = set()

    def consider(entity: IRI, attribute_predicate: IRI, literal: Literal) -> None:
        # The candidate levels of an entity are bounded by the virtual
        # graph's terminal predicates (|L| of them), each checked with a
        # constant-anchored ASK probe — never by scanning the entity's
        # incoming edges, whose count grows with the store.
        for incoming in _incoming_terminal_predicates(endpoint, vgraph, entity):
            for level in vgraph.levels_with_terminal(incoming):
                key = (entity, level.path)
                if key in seen:
                    continue
                seen.add(key)
                if validate and not _reaches_observation(endpoint, vgraph, level, entity):
                    continue
                interpretations.append(
                    Interpretation(
                        keyword=keyword,
                        literal=literal,
                        member=entity,
                        attribute_predicate=attribute_predicate,
                        level=level,
                    )
                )

    direct = _as_direct_iri(keyword)
    if direct is not None:
        consider(direct, _SELF_REFERENCE, Literal(direct.value))
    else:
        for entity, attribute_predicate, literal in endpoint.resolve_keyword(
            keyword, exact=exact
        ):
            if isinstance(entity, IRI):
                # Blank-node members cannot be referenced in queries.
                consider(entity, attribute_predicate, literal)
    interpretations.sort(key=lambda i: (i.member.value, tuple(p.value for p in i.level.path)))
    return interpretations


#: Variables of the membership probes, built as ASTs so that no probe is
#: formatted as text and parsed again.
_X = Variable("x")
_OBS = Variable("o")

#: Pseudo-predicate marking a member given directly by IRI (footnote 3's
#: mixed input), where no attribute literal was involved.
_SELF_REFERENCE = IRI("urn:repro:direct-iri-reference")


def _as_direct_iri(keyword: str) -> IRI | None:
    """Interpret ``<http://...>`` (or a bare absolute IRI) as a member IRI."""
    text = keyword.strip()
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    elif "://" not in text:
        return None
    if " " in text or not text:
        return None
    return IRI(text)


def _incoming_terminal_predicates(
    endpoint: Endpoint, vgraph: VirtualSchemaGraph, entity: IRI
) -> list[IRI]:
    """Virtual-graph terminal predicates that point at the entity.

    One ASK probe per distinct terminal predicate (O(|L|) probes, each
    answered from the predicate-object index), instead of enumerating all
    incoming edges of the entity.
    """
    terminals = sorted(
        {level.terminal_predicate for level in vgraph.all_levels()},
        key=lambda p: p.value,
    )
    return [
        predicate for predicate in terminals
        if endpoint.ask(ask((_X, predicate, entity)))
    ]


def _reaches_observation(
    endpoint: Endpoint, vgraph: VirtualSchemaGraph, level: VLevel, member: IRI
) -> bool:
    """ASK whether some observation reaches ``member`` through the level path."""
    return endpoint.ask(ask(
        (_OBS, RDF.type, vgraph.observation_class),
        (_OBS, path(*level.path), member),
    ))
