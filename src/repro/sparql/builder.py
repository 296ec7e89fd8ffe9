"""Programmatic SPARQL query construction.

REOLAP's ``GetQuery`` step assembles queries from virtual-graph paths
rather than strings; this fluent builder is the API it uses.  Built queries
are plain AST objects, so they serialize with ``to_sparql()`` and round-trip
through the parser — a property the test suite checks for every generated
query.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..rdf.terms import IRI, Literal, Term, Variable, literal_from_python
from .ast import (
    Aggregate,
    AskQuery,
    Comparison,
    Expression,
    Filter,
    GroupGraphPattern,
    InExpr,
    OrderCondition,
    Projection,
    PropertyPath,
    SelectQuery,
    SequencePath,
    TermExpr,
    TriplePattern,
    ValuesClause,
)

__all__ = ["SelectBuilder", "ask", "path", "var", "agg"]


def var(name: str) -> Variable:
    """Shorthand for :class:`Variable`."""
    return Variable(name)


def path(*steps: IRI) -> IRI | SequencePath:
    """A sequence property path; collapses to the IRI for a single step."""
    if not steps:
        raise ValueError("path() requires at least one step")
    if len(steps) == 1:
        return steps[0]
    return SequencePath(tuple(steps))


def ask(*patterns: tuple) -> AskQuery:
    """An ASK over ``(s, p, o)`` triple patterns; ``p`` may be a path."""
    return AskQuery(GroupGraphPattern(tuple(
        TriplePattern(s, p, o) for s, p, o in patterns
    )))


def agg(func: str, variable: Variable | None = None, distinct: bool = False) -> Aggregate:
    """An aggregate expression over a variable (None = ``COUNT(*)``)."""
    arg = None if variable is None else TermExpr(variable)
    return Aggregate(func, arg, distinct=distinct)


class SelectBuilder:
    """Accumulates the pieces of a SELECT query, then :meth:`build`\\ s it.

    >>> q = (SelectBuilder()
    ...      .select(var("x"))
    ...      .where(var("x"), IRI("urn:p"), Literal("y"))
    ...      .build())
    >>> "SELECT ?x" in q.to_sparql()
    True
    """

    def __init__(self) -> None:
        self._projections: list[Projection] = []
        self._elements: list = []
        self._group_by: list[Variable] = []
        self._having: list[Expression] = []
        self._order_by: list[OrderCondition] = []
        self._limit: int | None = None
        self._offset: int | None = None
        self._distinct = False
        self._select_all = False

    # -- SELECT clause -----------------------------------------------------

    def select(self, *variables: Variable) -> "SelectBuilder":
        for variable in variables:
            self._projections.append(Projection(TermExpr(variable)))
        return self

    def select_expr(self, expression: Expression, alias: Variable) -> "SelectBuilder":
        self._projections.append(Projection(expression, alias))
        return self

    def select_agg(self, func: str, variable: Variable, alias: Variable, distinct: bool = False) -> "SelectBuilder":
        return self.select_expr(agg(func, variable, distinct), alias)

    def select_star(self) -> "SelectBuilder":
        self._select_all = True
        return self

    def distinct(self, enabled: bool = True) -> "SelectBuilder":
        self._distinct = enabled
        return self

    # -- WHERE clause --------------------------------------------------------

    def where(self, s, p, o) -> "SelectBuilder":
        """Add one triple pattern; ``p`` may be an IRI, variable, or path."""
        self._elements.append(TriplePattern(s, p, o))
        return self

    def where_path(self, s, steps: Sequence[IRI], o) -> "SelectBuilder":
        """Add a pattern whose predicate is the sequence path over ``steps``."""
        return self.where(s, path(*steps), o)

    def filter(self, expression: Expression) -> "SelectBuilder":
        self._elements.append(Filter(expression))
        return self

    def filter_equals(self, variable: Variable, value) -> "SelectBuilder":
        term = value if isinstance(value, Term) else literal_from_python(value)
        return self.filter(Comparison("=", TermExpr(variable), TermExpr(term)))

    def filter_in(self, variable: Variable, values: Iterable) -> "SelectBuilder":
        options = tuple(
            TermExpr(v if isinstance(v, Term) else literal_from_python(v)) for v in values
        )
        return self.filter(InExpr(TermExpr(variable), options))

    def filter_range(
        self, variable: Variable, low=None, high=None,
        low_inclusive: bool = True, high_inclusive: bool = True,
    ) -> "SelectBuilder":
        """Add a numeric range filter; either bound may be omitted."""
        if low is None and high is None:
            raise ValueError("filter_range requires at least one bound")
        if low is not None:
            term = low if isinstance(low, Term) else literal_from_python(low)
            op = ">=" if low_inclusive else ">"
            self.filter(Comparison(op, TermExpr(variable), TermExpr(term)))
        if high is not None:
            term = high if isinstance(high, Term) else literal_from_python(high)
            op = "<=" if high_inclusive else "<"
            self.filter(Comparison(op, TermExpr(variable), TermExpr(term)))
        return self

    def values(self, variables: Sequence[Variable], rows: Iterable[Sequence]) -> "SelectBuilder":
        prepared = tuple(
            tuple(
                None if cell is None else (cell if isinstance(cell, Term) else literal_from_python(cell))
                for cell in row
            )
            for row in rows
        )
        self._elements.append(ValuesClause(tuple(variables), prepared))
        return self

    # -- solution modifiers ----------------------------------------------------

    def group_by(self, *variables: Variable) -> "SelectBuilder":
        self._group_by.extend(variables)
        return self

    def having(self, expression: Expression) -> "SelectBuilder":
        self._having.append(expression)
        return self

    def order_by(self, expression: Expression | Variable, ascending: bool = True) -> "SelectBuilder":
        if isinstance(expression, Variable):
            expression = TermExpr(expression)
        self._order_by.append(OrderCondition(expression, ascending))
        return self

    def limit(self, count: int) -> "SelectBuilder":
        if count < 0:
            raise ValueError("LIMIT must be non-negative")
        self._limit = count
        return self

    def offset(self, count: int) -> "SelectBuilder":
        if count < 0:
            raise ValueError("OFFSET must be non-negative")
        self._offset = count
        return self

    # -- construction ----------------------------------------------------------

    def build(self) -> SelectQuery:
        return SelectQuery(
            projections=tuple(self._projections),
            where=GroupGraphPattern(tuple(self._elements)),
            distinct=self._distinct,
            group_by=tuple(self._group_by),
            having=tuple(self._having),
            order_by=tuple(self._order_by),
            limit=self._limit,
            offset=self._offset,
            select_all=self._select_all,
        )
