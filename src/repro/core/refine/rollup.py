"""Example-driven Roll-up: the inverse of Disaggregate.

Section 4.2 names roll-up as the dual of drill-down ("moving between
coarser and finer granularity levels").  The main paper only ships the
Disaggregate direction; this operator completes the pair: for every query
dimension that has a coarser level in the virtual graph (an extension of
its current path), propose the query with that dimension re-grouped at
the coarser level.

Example containment is preserved by *re-anchoring*: the example member of
the rolled-up dimension is replaced by its ancestor(s) at the coarser
level (resolved through the endpoint).  With M-to-N hierarchies a member
has several ancestors; the anchor group is branched so that a row
matching *any* ancestor still counts as matching the example.
"""

from __future__ import annotations

import itertools

from ...rdf.terms import IRI
from ...sparql.results import ResultSet
from ...store.endpoint import Endpoint
from ..olap_query import Anchor, OLAPQuery, QueryDimension
from ..virtual_graph import VirtualSchemaGraph, VLevel
from .base import Refinement, RefinementMethod

__all__ = ["Rollup"]


class Rollup(RefinementMethod):
    """The roll-up operator: re-group one dimension at a coarser level."""

    name = "rollup"

    def __init__(self, vgraph: VirtualSchemaGraph, endpoint: Endpoint):
        self.vgraph = vgraph
        self.endpoint = endpoint

    def propose(self, query: OLAPQuery, results: ResultSet | None = None) -> list[Refinement]:
        proposals: list[Refinement] = []
        current_paths = {d.level.path for d in query.dimensions}
        for index, dimension in enumerate(query.dimensions):
            for coarser in self.vgraph.all_levels():
                if not dimension.level.is_finer_than(coarser):
                    continue
                if coarser.path in current_paths:
                    continue
                refined = self._rolled_up(query, index, coarser)
                if refined is None:
                    continue
                proposals.append(
                    Refinement(
                        query=refined,
                        kind=self.name,
                        explanation=(
                            f"roll up \"{dimension.label}\" to \"{coarser.label}\""
                        ),
                    )
                )
        return proposals

    def _rolled_up(self, query: OLAPQuery, index: int, coarser: VLevel) -> OLAPQuery | None:
        old_level = query.dimensions[index].level
        dimensions = list(query.dimensions)
        dimensions[index] = QueryDimension(coarser)
        anchors = self._reanchored(query, old_level, coarser)
        if anchors is None:
            return None
        refined = query.regrouped(tuple(dimensions), anchors=anchors)
        from ..describe import describe_query

        return refined.described(
            describe_query(refined) + f" — rolled up from \"{old_level.label}\""
        )

    def _reanchored(
        self, query: OLAPQuery, old_level: VLevel, coarser: VLevel
    ) -> tuple[Anchor, ...] | None:
        """Anchors with members of ``old_level`` lifted to ``coarser``.

        Returns None when some affected member has no ancestor (it would
        silently vanish from the results, violating containment).
        """
        rollup_steps = coarser.path[len(old_level.path):]
        by_group: dict[int, list[list[Anchor]]] = {}
        for anchor in query.anchors:
            variants: list[Anchor]
            if anchor.level.path == old_level.path:
                ancestors = self._ancestors(anchor.member, rollup_steps)
                if not ancestors:
                    return None
                variants = [
                    Anchor(level=coarser, member=ancestor,
                           keyword=anchor.keyword, group=anchor.group)
                    for ancestor in ancestors
                ]
            else:
                variants = [anchor]
            by_group.setdefault(anchor.group, []).append(variants)

        # Branch each group over the ancestor alternatives (M-to-N case),
        # assigning fresh group ids so any branch matching counts.
        rebuilt: list[Anchor] = []
        next_group = 0
        for group in sorted(by_group):
            for combination in itertools.product(*by_group[group]):
                rebuilt.extend(
                    Anchor(level=a.level, member=a.member,
                           keyword=a.keyword, group=next_group)
                    for a in combination
                )
                next_group += 1
        return tuple(rebuilt)

    def _ancestors(self, member: IRI, steps: tuple[IRI, ...]) -> list[IRI]:
        """Members reached from ``member`` through the rollup steps."""
        chain = " / ".join(p.n3() for p in steps)
        result = self.endpoint.select(
            f"SELECT DISTINCT ?a WHERE {{ {member.n3()} {chain} ?a }}"
        )
        return sorted(
            (row[0] for row in result if isinstance(row[0], IRI)),
            key=lambda iri: iri.value,
        )
