"""Abstract syntax tree for the SPARQL subset.

Nodes are small frozen dataclasses.  Every node knows how to render itself
back to SPARQL surface syntax via ``to_sparql()``, which is what makes the
programmatic query builder (used by REOLAP's GetQuery) and the parser
round-trip: a generated query can be serialized, re-parsed, and evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from ..rdf.terms import IRI, BNode, Literal, Term, Variable

__all__ = [
    "PropertyPath",
    "SequencePath",
    "InversePath",
    "AlternativePath",
    "OneOrMorePath",
    "ZeroOrMorePath",
    "TriplePattern",
    "BindClause",
    "ExistsFilter",
    "MinusPattern",
    "SubSelect",
    "Expression",
    "TermExpr",
    "Comparison",
    "Arithmetic",
    "BoolOp",
    "NotExpr",
    "FunctionCall",
    "InExpr",
    "Aggregate",
    "Projection",
    "Filter",
    "ValuesClause",
    "OptionalPattern",
    "UnionPattern",
    "GroupGraphPattern",
    "OrderCondition",
    "SelectQuery",
    "AskQuery",
    "ConstructQuery",
    "Query",
]


# --------------------------------------------------------------------------
# Property paths
# --------------------------------------------------------------------------


class PropertyPath:
    """Base class for property path expressions in predicate position."""

    def to_sparql(self) -> str:
        raise NotImplementedError

    def iris(self) -> list[IRI]:
        """All IRIs mentioned anywhere in the path."""
        raise NotImplementedError


@dataclass(frozen=True)
class SequencePath(PropertyPath):
    """``p1 / p2 / ...`` — a chain of steps."""

    steps: tuple[Union[IRI, PropertyPath], ...]

    def __post_init__(self):
        if len(self.steps) < 2:
            raise ValueError("SequencePath requires at least two steps")

    def to_sparql(self) -> str:
        return " / ".join(_path_step_sparql(step) for step in self.steps)

    def iris(self) -> list[IRI]:
        result: list[IRI] = []
        for step in self.steps:
            result.extend([step] if isinstance(step, IRI) else step.iris())
        return result


@dataclass(frozen=True)
class InversePath(PropertyPath):
    """``^p`` — traverse the predicate from object to subject."""

    step: Union[IRI, PropertyPath]

    def to_sparql(self) -> str:
        return "^" + _path_step_sparql(self.step)

    def iris(self) -> list[IRI]:
        return [self.step] if isinstance(self.step, IRI) else self.step.iris()


@dataclass(frozen=True)
class AlternativePath(PropertyPath):
    """``p1 | p2`` — match either branch."""

    options: tuple[Union[IRI, PropertyPath], ...]

    def __post_init__(self):
        if len(self.options) < 2:
            raise ValueError("AlternativePath requires at least two options")

    def to_sparql(self) -> str:
        return "(" + " | ".join(_path_step_sparql(o) for o in self.options) + ")"

    def iris(self) -> list[IRI]:
        result: list[IRI] = []
        for option in self.options:
            result.extend([option] if isinstance(option, IRI) else option.iris())
        return result


@dataclass(frozen=True)
class OneOrMorePath(PropertyPath):
    """``p+`` — one or more repetitions (transitive closure)."""

    step: Union[IRI, PropertyPath]

    def to_sparql(self) -> str:
        return _path_step_sparql(self.step) + "+"

    def iris(self) -> list[IRI]:
        return [self.step] if isinstance(self.step, IRI) else self.step.iris()


@dataclass(frozen=True)
class ZeroOrMorePath(PropertyPath):
    """``p*`` — zero or more repetitions (reflexive-transitive closure)."""

    step: Union[IRI, PropertyPath]

    def to_sparql(self) -> str:
        return _path_step_sparql(self.step) + "*"

    def iris(self) -> list[IRI]:
        return [self.step] if isinstance(self.step, IRI) else self.step.iris()


def _path_step_sparql(step: Union[IRI, PropertyPath]) -> str:
    if isinstance(step, IRI):
        return step.n3()
    rendered = step.to_sparql()
    if isinstance(step, SequencePath):
        return f"({rendered})"
    return rendered


# --------------------------------------------------------------------------
# Triple patterns
# --------------------------------------------------------------------------

PatternTerm = Union[IRI, BNode, Literal, Variable]
Predicate = Union[IRI, Variable, PropertyPath]


@dataclass(frozen=True)
class TriplePattern:
    """A single ``s p o`` pattern; ``p`` may be a property path."""

    s: PatternTerm
    p: Predicate
    o: PatternTerm

    def to_sparql(self) -> str:
        p_text = self.p.to_sparql() if isinstance(self.p, PropertyPath) else self.p.n3()
        return f"{self.s.n3()} {p_text} {self.o.n3()} ."

    def variables(self) -> set[Variable]:
        result = {t for t in (self.s, self.o) if isinstance(t, Variable)}
        if isinstance(self.p, Variable):
            result.add(self.p)
        return result


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expression:
    """Base class for filter / projection expressions."""

    def to_sparql(self) -> str:
        raise NotImplementedError

    def variables(self) -> set[Variable]:
        raise NotImplementedError


@dataclass(frozen=True)
class TermExpr(Expression):
    """A constant term or a variable used as an expression."""

    term: Term

    def to_sparql(self) -> str:
        return self.term.n3()

    def variables(self) -> set[Variable]:
        return {self.term} if isinstance(self.term, Variable) else set()


@dataclass(frozen=True)
class Comparison(Expression):
    """``left OP right`` with OP in =, !=, <, <=, >, >=."""

    op: str
    left: Expression
    right: Expression

    _OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self):
        if self.op not in self._OPS:
            raise ValueError(f"invalid comparison operator {self.op!r}")

    def to_sparql(self) -> str:
        return f"({self.left.to_sparql()} {self.op} {self.right.to_sparql()})"

    def variables(self) -> set[Variable]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class Arithmetic(Expression):
    """``left OP right`` with OP in +, -, *, /."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"invalid arithmetic operator {self.op!r}")

    def to_sparql(self) -> str:
        return f"({self.left.to_sparql()} {self.op} {self.right.to_sparql()})"

    def variables(self) -> set[Variable]:
        return self.left.variables() | self.right.variables()


@dataclass(frozen=True)
class BoolOp(Expression):
    """``&&`` / ``||`` over two or more operands."""

    op: str
    operands: tuple[Expression, ...]

    def __post_init__(self):
        if self.op not in ("&&", "||"):
            raise ValueError(f"invalid boolean operator {self.op!r}")
        if len(self.operands) < 2:
            raise ValueError("BoolOp requires at least two operands")

    def to_sparql(self) -> str:
        return "(" + f" {self.op} ".join(o.to_sparql() for o in self.operands) + ")"

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for operand in self.operands:
            result |= operand.variables()
        return result


@dataclass(frozen=True)
class NotExpr(Expression):
    """Logical negation ``!expr``."""

    operand: Expression

    def to_sparql(self) -> str:
        return f"(! {self.operand.to_sparql()})"

    def variables(self) -> set[Variable]:
        return self.operand.variables()


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A built-in call such as ``REGEX(?x, "pat")`` or ``isLiteral(?x)``."""

    name: str
    args: tuple[Expression, ...]

    def to_sparql(self) -> str:
        return f"{self.name}(" + ", ".join(a.to_sparql() for a in self.args) + ")"

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for arg in self.args:
            result |= arg.variables()
        return result


@dataclass(frozen=True)
class InExpr(Expression):
    """``expr IN (a, b, ...)`` or its NOT IN negation."""

    operand: Expression
    options: tuple[Expression, ...]
    negated: bool = False

    def to_sparql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        options = ", ".join(o.to_sparql() for o in self.options)
        return f"({self.operand.to_sparql()} {keyword} ({options}))"

    def variables(self) -> set[Variable]:
        result = self.operand.variables()
        for option in self.options:
            result |= option.variables()
        return result


@dataclass(frozen=True)
class Aggregate(Expression):
    """An aggregate such as ``SUM(?v)`` or ``COUNT(*)`` (arg ``None``)."""

    func: str
    arg: Expression | None
    distinct: bool = False

    _FUNCS = ("COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT")

    def __post_init__(self):
        func = self.func.upper()
        if func not in self._FUNCS:
            raise ValueError(f"unsupported aggregate {self.func!r}")
        object.__setattr__(self, "func", func)
        if self.arg is None and func != "COUNT":
            raise ValueError(f"{func} requires an argument expression")

    def to_sparql(self) -> str:
        inner = "*" if self.arg is None else self.arg.to_sparql()
        if self.distinct:
            inner = "DISTINCT " + inner
        return f"{self.func}({inner})"

    def variables(self) -> set[Variable]:
        return set() if self.arg is None else self.arg.variables()


# --------------------------------------------------------------------------
# Graph patterns
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Filter:
    """A FILTER constraint inside a group graph pattern."""

    expression: Expression

    def to_sparql(self) -> str:
        return f"FILTER {self.expression.to_sparql()}"


@dataclass(frozen=True)
class ValuesClause:
    """Inline data: ``VALUES (?a ?b) { (x y) (z UNDEF) }``.

    ``None`` inside a row stands for UNDEF (leaves the variable unbound).
    """

    variables_: tuple[Variable, ...]
    rows: tuple[tuple[Term | None, ...], ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.variables_):
                raise ValueError("VALUES row width does not match variable list")

    def to_sparql(self) -> str:
        vars_text = " ".join(v.n3() for v in self.variables_)
        rows_text = " ".join(
            "(" + " ".join("UNDEF" if t is None else t.n3() for t in row) + ")"
            for row in self.rows
        )
        return f"VALUES ({vars_text}) {{ {rows_text} }}"


@dataclass(frozen=True)
class BindClause:
    """``BIND(expr AS ?var)`` — compute a new binding per solution."""

    expression: Expression
    variable: Variable

    def to_sparql(self) -> str:
        return f"BIND({self.expression.to_sparql()} AS {self.variable.n3()})"


@dataclass(frozen=True)
class ExistsFilter:
    """``FILTER [NOT] EXISTS { ... }`` — pattern-existence constraint."""

    pattern: "GroupGraphPattern"
    negated: bool = False

    def to_sparql(self) -> str:
        keyword = "FILTER NOT EXISTS " if self.negated else "FILTER EXISTS "
        return keyword + self.pattern.to_sparql()


@dataclass(frozen=True)
class MinusPattern:
    """``MINUS { ... }`` — remove solutions compatible with the pattern."""

    pattern: "GroupGraphPattern"

    def to_sparql(self) -> str:
        return "MINUS " + self.pattern.to_sparql()


@dataclass(frozen=True)
class SubSelect:
    """``{ SELECT ... }`` — a subquery evaluated independently and joined.

    Per SPARQL semantics, subqueries are evaluated bottom-up: the inner
    SELECT runs against the whole graph and its solutions join with the
    enclosing group on shared projected variables.
    """

    query: "SelectQuery"

    def to_sparql(self) -> str:
        inner = "\n".join("  " + line for line in self.query.to_sparql().splitlines())
        return "{\n" + inner + "\n}"


@dataclass(frozen=True)
class OptionalPattern:
    """``OPTIONAL { ... }`` — a left join with the enclosing pattern."""

    pattern: "GroupGraphPattern"

    def to_sparql(self) -> str:
        return "OPTIONAL " + self.pattern.to_sparql()


@dataclass(frozen=True)
class UnionPattern:
    """``{ ... } UNION { ... }`` over two or more branches."""

    branches: tuple["GroupGraphPattern", ...]

    def __post_init__(self):
        if len(self.branches) < 2:
            raise ValueError("UnionPattern requires at least two branches")

    def to_sparql(self) -> str:
        return " UNION ".join(b.to_sparql() for b in self.branches)


GroupElement = Union[
    TriplePattern, Filter, ValuesClause, OptionalPattern, UnionPattern,
    BindClause, ExistsFilter, MinusPattern, SubSelect,
]


#: Element classes in the order every engine evaluates a group's parts.
_EVALUATION_ORDER = (
    ValuesClause, SubSelect, TriplePattern, Filter, UnionPattern,
    OptionalPattern, BindClause, ExistsFilter, MinusPattern,
)


@dataclass(frozen=True)
class GroupGraphPattern:
    """The body of a WHERE clause: an ordered list of group elements."""

    elements: tuple[GroupElement, ...] = ()

    def partition(self) -> tuple[list, ...]:
        """The elements split by class, each list in source order.

        Returns ``(values, subselects, patterns, filters, unions,
        optionals, binds, exists_filters, minus_patterns)``.
        """
        parts = {cls: [] for cls in _EVALUATION_ORDER}
        for element in self.elements:
            parts[type(element)].append(element)
        return tuple(parts.values())

    def to_sparql(self, indent: str = "  ") -> str:
        if not self.elements:
            return "{ }"
        lines = [indent + e.to_sparql() for e in self.elements]
        return "{\n" + "\n".join(lines) + "\n}"

    def triple_patterns(self) -> list[TriplePattern]:
        return [e for e in self.elements if isinstance(e, TriplePattern)]

    def filters(self) -> list[Filter]:
        return [e for e in self.elements if isinstance(e, Filter)]

    def variables(self) -> set[Variable]:
        result: set[Variable] = set()
        for element in self.elements:
            if isinstance(element, TriplePattern):
                result |= element.variables()
            elif isinstance(element, Filter):
                result |= element.expression.variables()
            elif isinstance(element, ValuesClause):
                result |= set(element.variables_)
            elif isinstance(element, OptionalPattern):
                result |= element.pattern.variables()
            elif isinstance(element, UnionPattern):
                for branch in element.branches:
                    result |= branch.variables()
            elif isinstance(element, BindClause):
                result.add(element.variable)
                result |= element.expression.variables()
            elif isinstance(element, SubSelect):
                result |= set(element.query.output_variables())
            # ExistsFilter / MinusPattern variables are scoped to their own
            # group and do not join the enclosing pattern.
        return result


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """One SELECT item: a bare variable or ``(expr AS ?alias)``."""

    expression: Expression
    alias: Variable | None = None

    @property
    def variable(self) -> Variable:
        """The output variable this projection binds."""
        if self.alias is not None:
            return self.alias
        if isinstance(self.expression, TermExpr) and isinstance(self.expression.term, Variable):
            return self.expression.term
        raise ValueError("non-variable projection requires an AS alias")

    @property
    def is_aggregate(self) -> bool:
        return _contains_aggregate(self.expression)

    def to_sparql(self) -> str:
        if self.alias is None:
            return self.expression.to_sparql()
        return f"({self.expression.to_sparql()} AS {self.alias.n3()})"


def _contains_aggregate(expression: Expression) -> bool:
    if isinstance(expression, Aggregate):
        return True
    if isinstance(expression, (Comparison, Arithmetic)):
        return _contains_aggregate(expression.left) or _contains_aggregate(expression.right)
    if isinstance(expression, BoolOp):
        return any(_contains_aggregate(o) for o in expression.operands)
    if isinstance(expression, NotExpr):
        return _contains_aggregate(expression.operand)
    if isinstance(expression, FunctionCall):
        return any(_contains_aggregate(a) for a in expression.args)
    if isinstance(expression, InExpr):
        return _contains_aggregate(expression.operand) or any(
            _contains_aggregate(o) for o in expression.options
        )
    return False


@dataclass(frozen=True)
class OrderCondition:
    """One ORDER BY key with direction."""

    expression: Expression
    ascending: bool = True

    def to_sparql(self) -> str:
        rendered = self.expression.to_sparql()
        if isinstance(self.expression, TermExpr) and not self.ascending:
            return f"DESC({rendered})"
        if not self.ascending:
            return f"DESC({rendered})"
        return rendered


@dataclass(frozen=True)
class SelectQuery:
    """A ``SELECT ... WHERE ... [GROUP BY ... HAVING ... ORDER BY ...]``."""

    projections: tuple[Projection, ...]
    where: GroupGraphPattern
    distinct: bool = False
    group_by: tuple[Variable, ...] = ()
    having: tuple[Expression, ...] = ()
    order_by: tuple[OrderCondition, ...] = ()
    limit: int | None = None
    offset: int | None = None
    select_all: bool = False

    def __post_init__(self):
        if not self.select_all and not self.projections:
            raise ValueError("SELECT requires projections or *")

    @property
    def is_aggregate_query(self) -> bool:
        return bool(self.group_by) or any(p.is_aggregate for p in self.projections)

    def output_variables(self) -> list[Variable]:
        if self.select_all:
            return sorted(self.where.variables(), key=lambda v: v.name)
        return [p.variable for p in self.projections]

    def to_sparql(self) -> str:
        head = "SELECT "
        if self.distinct:
            head += "DISTINCT "
        head += "*" if self.select_all else " ".join(p.to_sparql() for p in self.projections)
        parts = [head, "WHERE " + self.where.to_sparql()]
        if self.group_by:
            parts.append("GROUP BY " + " ".join(v.n3() for v in self.group_by))
        if self.having:
            parts.append("HAVING " + " ".join(f"({h.to_sparql()})" for h in self.having))
        if self.order_by:
            parts.append("ORDER BY " + " ".join(o.to_sparql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        return "\n".join(parts)


@dataclass(frozen=True)
class AskQuery:
    """An ``ASK WHERE { ... }`` existence test."""

    where: GroupGraphPattern

    def to_sparql(self) -> str:
        return "ASK " + self.where.to_sparql()


@dataclass(frozen=True)
class ConstructQuery:
    """``CONSTRUCT { template } WHERE { ... }`` — build a graph from matches.

    The template holds plain triple patterns (no paths); each solution of
    the WHERE clause instantiates it, skipping triples left incomplete by
    unbound variables (per the SPARQL spec).
    """

    template: tuple[TriplePattern, ...]
    where: GroupGraphPattern
    limit: int | None = None

    def __post_init__(self):
        for pattern in self.template:
            if isinstance(pattern.p, PropertyPath):
                raise ValueError("CONSTRUCT templates cannot contain property paths")

    def to_sparql(self) -> str:
        body = "\n".join("  " + p.to_sparql() for p in self.template)
        text = "CONSTRUCT {\n" + body + "\n}\nWHERE " + self.where.to_sparql()
        if self.limit is not None:
            text += f"\nLIMIT {self.limit}"
        return text


Query = Union[SelectQuery, AskQuery, ConstructQuery]
