"""Keyword suggestions: autocomplete for example-value entry.

The paper's system is driven by a UI search box; this module provides the
service behind it: given a few typed characters, suggest member labels
together with the levels they would be interpreted at, so the user can
pick an unambiguous example value before synthesis even runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rdf.terms import IRI, Literal
from ..sparql.builder import ask, var
from ..store.endpoint import Endpoint
from .virtual_graph import VirtualSchemaGraph

__all__ = ["Suggestion", "suggest"]


@dataclass(frozen=True)
class Suggestion:
    """One completion: a label and the level labels it may refer to."""

    label: str
    levels: tuple[str, ...]

    @property
    def is_ambiguous(self) -> bool:
        return len(self.levels) > 1

    def render(self) -> str:
        return f"{self.label}  ({' | '.join(self.levels)})"


def suggest(
    endpoint: Endpoint,
    vgraph: VirtualSchemaGraph,
    prefix: str,
    limit: int = 10,
) -> list[Suggestion]:
    """Member-label completions for a typed prefix.

    Labels are matched by token prefix through the text index; each hit is
    mapped to the virtual-graph levels a full keyword match would resolve
    to (without the per-level ASK validation — suggestions are previews,
    synthesis re-validates).  Results are sorted by label, capped at
    ``limit``.
    """
    if not prefix.strip():
        return []
    terminal_levels: dict[IRI, list[str]] = {}
    for level in vgraph.all_levels():
        terminal_levels.setdefault(level.terminal_predicate, []).append(level.label)

    suggestions: dict[str, set[str]] = {}
    hits = sorted(
        endpoint.text_index.search_prefix(prefix),
        key=lambda literal: literal.sort_key(),
    )
    for literal in hits:
        if len(suggestions) >= limit and literal.lexical not in suggestions:
            continue
        level_labels: set[str] = set()
        for subject, _predicate in endpoint.text_index.occurrences(literal):
            if not isinstance(subject, IRI):
                continue
            for terminal, labels in terminal_levels.items():
                if endpoint.ask(ask((var("x"), terminal, subject))):
                    level_labels.update(labels)
        if level_labels:
            suggestions.setdefault(literal.lexical, set()).update(level_labels)
    return [
        Suggestion(label=label, levels=tuple(sorted(levels)))
        for label, levels in sorted(suggestions.items())
    ][:limit]
