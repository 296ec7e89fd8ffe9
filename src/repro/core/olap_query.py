"""The OLAP query model REOLAP synthesizes and ExRef refines.

An :class:`OLAPQuery` is a structured view of a ``SELECT … WHERE … GROUP
BY`` analytical query: its grouping dimensions (virtual-graph levels), its
measures with the four standard aggregates, the restrictions accumulated
by refinements (member restrictions, HAVING thresholds), and the *anchors*
— the dimension members matched from the user's example, which every
refinement must keep in the result set (Problem 2's containment).

The class assembles a :class:`~repro.sparql.ast.SelectQuery` on demand;
the generated text parses back through the engine's own parser, so queries
are portable to any SPARQL endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..rdf.terms import IRI, Node, Variable
from ..sparql.ast import (
    Comparison,
    Expression,
    Filter,
    GroupGraphPattern,
    Projection,
    SelectQuery,
    TermExpr,
    TriplePattern,
    ValuesClause,
)
from ..sparql.builder import agg
from ..sparql.results import ResultSet
from .virtual_graph import VLevel, path_variable

__all__ = ["OLAPQuery", "QueryDimension", "MeasureColumn", "Anchor", "AGGREGATE_FUNCTIONS"]

#: The aggregation functions instantiated for every measure (Section 5.1).
AGGREGATE_FUNCTIONS = ("SUM", "MIN", "MAX", "AVG")

OBS_VAR = Variable("obs")


@dataclass(frozen=True)
class QueryDimension:
    """One grouping dimension: a virtual-graph level and its output variable."""

    level: VLevel

    @property
    def variable(self) -> Variable:
        return self.level.variable()

    @property
    def label(self) -> str:
        return self.level.label


@dataclass(frozen=True)
class MeasureColumn:
    """One measure: its predicate, raw variable, and aggregate aliases."""

    predicate: IRI
    label: str

    @property
    def variable(self) -> Variable:
        return Variable("m_" + _safe(self.predicate.local_name()))

    def alias(self, func: str) -> Variable:
        """The output variable of one aggregate, e.g. ``?sum_num_applicants``."""
        return Variable(f"{func.lower()}_{_safe(self.predicate.local_name())}")

    def aliases(self) -> list[tuple[str, Variable]]:
        return [(func, self.alias(func)) for func in AGGREGATE_FUNCTIONS]


@dataclass(frozen=True)
class SliceConstraint:
    """A sliced-away dimension: pinned to one member, not grouped by.

    The assembled query keeps the BGP chain to the member as a constant
    (``?obs <p> <member>``), so only that member's observations
    contribute, while the column disappears from the output — the OLAP
    *slice* operation (Section 4.2).
    """

    level: VLevel
    member: IRI


@dataclass(frozen=True)
class Anchor:
    """An example member the query is anchored to (from the user input).

    ``group`` identifies which example tuple the anchor came from: with
    multiple example tuples (the paper's footnote 3), a result row matches
    the example when it matches *all* anchors of *some* group.
    """

    level: VLevel
    member: IRI
    keyword: str
    group: int = 0

    @property
    def variable(self) -> Variable:
        return self.level.variable()


@dataclass(frozen=True)
class OLAPQuery:
    """An analytical query over a statistical KG (immutable; see helpers)."""

    observation_class: IRI
    dimensions: tuple[QueryDimension, ...]
    measures: tuple[MeasureColumn, ...]
    anchors: tuple[Anchor, ...] = ()
    member_restrictions: tuple[ValuesClause, ...] = ()
    extra_filters: tuple[Expression, ...] = ()
    slices: tuple[SliceConstraint, ...] = ()
    having: tuple[Expression, ...] = ()
    description: str = ""

    def __post_init__(self):
        if not self.dimensions:
            raise ValueError("an OLAP query needs at least one dimension")
        if not self.measures:
            raise ValueError("an OLAP query needs at least one measure")
        variables = [d.variable for d in self.dimensions]
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate grouping variables in OLAP query")

    # -- structure accessors ---------------------------------------------------

    @property
    def group_variables(self) -> tuple[Variable, ...]:
        return tuple(d.variable for d in self.dimensions)

    def dimension_for_variable(self, variable: Variable) -> QueryDimension:
        for dimension in self.dimensions:
            if dimension.variable == variable:
                return dimension
        raise KeyError(f"no dimension bound to {variable.n3()}")

    def has_dimension_predicate(self, predicate: IRI) -> bool:
        return any(d.level.dimension_predicate == predicate for d in self.dimensions)

    def levels(self) -> list[VLevel]:
        return [d.level for d in self.dimensions]

    def anchored_variables(self) -> set[Variable]:
        """Variables constrained by example anchors present in the query."""
        present = set(self.group_variables)
        return {a.variable for a in self.anchors if a.variable in present}

    # -- SPARQL assembly ---------------------------------------------------------

    def to_select(self, limit: int | None = None) -> SelectQuery:
        """Assemble the executable SELECT query."""
        elements: list = []
        elements.extend(self.member_restrictions)
        elements.append(TriplePattern(OBS_VAR, _RDF_TYPE, self.observation_class))
        seen: set[TriplePattern] = set()
        for dimension in self.dimensions:
            for pattern in _chain_patterns(dimension.level):
                if pattern not in seen:
                    seen.add(pattern)
                    elements.append(pattern)
        for constraint in self.slices:
            for pattern in _slice_patterns(constraint):
                if pattern not in seen:
                    seen.add(pattern)
                    elements.append(pattern)
        for measure in self.measures:
            elements.append(TriplePattern(OBS_VAR, measure.predicate, measure.variable))
        for constraint in self.extra_filters:
            elements.append(Filter(constraint))
        projections = [Projection(TermExpr(v)) for v in self.group_variables]
        for measure in self.measures:
            for func, alias in measure.aliases():
                projections.append(Projection(agg(func, measure.variable), alias))
        return SelectQuery(
            projections=tuple(projections),
            where=GroupGraphPattern(tuple(elements)),
            group_by=self.group_variables,
            having=self.having,
            limit=limit,
        )

    def sparql(self) -> str:
        return self.to_select().to_sparql()

    # -- derivation helpers (used by ExRef) ----------------------------------------

    def with_dimension(self, level: VLevel, description: str | None = None) -> "OLAPQuery":
        """A copy with one more grouping dimension (drill-down)."""
        if level.variable() in set(self.group_variables):
            raise ValueError(f"query already groups by {level.label}")
        return replace(
            self,
            dimensions=self.dimensions + (QueryDimension(level),),
            description=description if description is not None else self.description,
        )

    def with_having(self, constraints: tuple[Expression, ...], description: str) -> "OLAPQuery":
        """A copy with extra HAVING thresholds (subset refinements)."""
        return replace(self, having=self.having + tuple(constraints), description=description)

    def with_member_restriction(
        self, variables: tuple[Variable, ...], rows: tuple[tuple[Node, ...], ...], description: str
    ) -> "OLAPQuery":
        """A copy restricted to given member combinations (similarity search)."""
        clause = ValuesClause(variables, rows)
        return replace(
            self,
            member_restrictions=self.member_restrictions + (clause,),
            description=description,
        )

    def with_filter(self, constraint: Expression, description: str | None = None) -> "OLAPQuery":
        """A copy with an extra WHERE-level FILTER (e.g. member exclusion)."""
        return replace(
            self,
            extra_filters=self.extra_filters + (constraint,),
            description=description if description is not None else self.description,
        )

    def with_slice(self, level: VLevel, member: IRI, description: str) -> "OLAPQuery":
        """A copy with ``level`` sliced: pinned to ``member``, not grouped.

        Requires the query to keep at least one grouping dimension.
        """
        remaining = tuple(d for d in self.dimensions if d.level.path != level.path)
        if len(remaining) == len(self.dimensions):
            raise ValueError(f"query does not group by {level.label}")
        if not remaining:
            raise ValueError("cannot slice away the last grouping dimension")
        return replace(
            self,
            dimensions=remaining,
            slices=self.slices + (SliceConstraint(level, member),),
            description=description,
        )

    def with_anchors(self, anchors: tuple[Anchor, ...]) -> "OLAPQuery":
        return replace(self, anchors=anchors)

    def described(self, description: str) -> "OLAPQuery":
        return replace(self, description=description)

    # -- result inspection ---------------------------------------------------------

    def anchor_row_indexes(self, results: ResultSet) -> list[int]:
        """Indexes of result rows matching the example.

        A row matches when there is some example tuple (anchor *group*)
        such that, in every column holding one of its anchors, the row's
        value is one of that group's anchors in that column.  Two keywords
        of one tuple may share a column (two destination countries), and
        then each is a match.  This is the example-containment check every
        refinement preserves.
        """
        variables = set(results.variables)
        groups: dict[int, dict[int, set]] = {}
        for anchor in self.anchors:
            if anchor.variable in variables:
                column = results.index_of(anchor.variable)
                groups.setdefault(anchor.group, {}).setdefault(
                    column, set()).add(anchor.member)
        if not groups:
            return list(range(len(results)))
        return [
            index for index, row in enumerate(results.rows)
            if any(all(row[column] in members for column, members in group.items())
                   for group in groups.values())
        ]

    def __repr__(self) -> str:
        dims = ", ".join(d.label for d in self.dimensions)
        return f"<OLAPQuery group by [{dims}]>"


_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")


def _chain_patterns(level: VLevel) -> list[TriplePattern]:
    """The BGP chain from the observation variable to the level variable.

    Intermediate variables are canonical in the path prefix, so two levels
    of the same dimension share their common patterns (deduplicated by the
    assembler) — grouping by both year and month emits the month chain once.
    """
    patterns = []
    subject: Variable = OBS_VAR
    for depth in range(len(level.path)):
        target = path_variable(level.path[: depth + 1])
        patterns.append(TriplePattern(subject, level.path[depth], target))
        subject = target
    return patterns


def _slice_patterns(constraint: SliceConstraint) -> list[TriplePattern]:
    """The BGP chain for a sliced dimension, ending at the member constant."""
    path = constraint.level.path
    patterns = []
    subject: Variable = OBS_VAR
    for depth in range(len(path)):
        last = depth == len(path) - 1
        target = constraint.member if last else path_variable(path[: depth + 1])
        patterns.append(TriplePattern(subject, path[depth], target))
        if not last:
            subject = target
    return patterns


def _safe(name: str) -> str:
    import re

    cleaned = re.sub(r"[^0-9A-Za-z_]", "_", name).lower()
    return cleaned or "m"
