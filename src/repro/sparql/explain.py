"""Query plan explanation.

``explain`` reports how the evaluator would execute a SELECT query.  Two
layers are rendered:

* an ``engine:`` header saying which engine :class:`~repro.sparql.eval.
  Evaluator` would *really* use — ``compiled`` when the unified id-space
  operator pipeline accepts the query, ``term-space`` (with the decline
  reason) when it falls back — decided by running the actual compiler,
  not by re-implementing its rules;
* for compiled queries, the full physical plan tree: every operator
  (IndexScan/NestedProbe, Filter, ValuesBind, Bind, SubqueryScan,
  LeftJoin, Union, Exists, Minus, PathClosure) with its cardinality
  estimate where one exists, nested OPTIONAL/UNION/EXISTS/MINUS/
  subquery sub-pipelines indented beneath their parent, plus the
  AggregateFold and OrderLimit stages when the query has them.

The flat ``steps`` list (join order + per-pattern estimates over the
top-level group) is kept as the stable diagnostic surface used by the
optimizer ablation write-up.  This module never executes the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import SelectQuery, TriplePattern
from .optimizer import estimate_cardinality, order_patterns
from .parser import parse_query

__all__ = ["PlanStep", "QueryPlan", "explain"]


@dataclass(frozen=True)
class PlanStep:
    """One BGP join step: the pattern, its estimate, and new bindings."""

    position: int
    pattern: TriplePattern
    estimated_cardinality: int
    binds: tuple[str, ...]

    def render(self) -> str:
        bound = ", ".join(f"?{name}" for name in self.binds) or "(nothing new)"
        return (
            f"{self.position}. {self.pattern.to_sparql()}  "
            f"[est. {self.estimated_cardinality} matches; binds {bound}]"
        )


@dataclass(frozen=True)
class QueryPlan:
    """The execution plan of one query: engine, operator tree, join order."""

    steps: tuple[PlanStep, ...]
    optimized: bool
    #: ``"compiled"`` or ``"term-space"`` — what the Evaluator would use.
    engine: str = "term-space"
    #: why compilation declined (None when ``engine == "compiled"``).
    decline_reason: str | None = None
    #: rendered physical-operator tree lines (empty for term-space plans).
    tree: tuple[str, ...] = field(default=())
    #: rendered batched-execution lines (empty for term-space plans).
    vectorized: tuple[str, ...] = field(default=())

    def render(self) -> str:
        if self.engine == "compiled":
            lines = ["engine: compiled"]
        else:
            reason = f" ({self.decline_reason})" if self.decline_reason else ""
            lines = [f"engine: term-space{reason}"]
        if self.tree:
            lines.append("physical plan:")
            lines.extend("  " + line for line in self.tree)
        if self.vectorized:
            lines.append("vectorized:")
            lines.extend("  " + line for line in self.vectorized)
        header = "join order (optimizer %s):" % ("on" if self.optimized else "off")
        lines.append(header)
        lines.extend("  " + step.render() for step in self.steps)
        return "\n".join(lines)


def _pipeline_lines(graph, pipeline, indent: str = "") -> list[str]:
    """Render one GroupPipeline's operators, recursing into sub-plans.

    Uses the pipeline's representative schedule (empty entry mask), so
    filter placement shown here is the top-level one; nested groups may
    re-interleave filters per entry row at run time.  Operators over a
    triple pattern carry the catalog's cardinality estimate for it.
    """
    if pipeline.empty:
        return [f"{indent}EmptyGroup {pipeline.empty_pattern.to_sparql()}"
                "  [constant absent from graph]"]
    lines: list[str] = []
    for op in pipeline.display_ops():
        detail = op.describe()
        line = f"{indent}{op.kind}"
        if detail:
            line += f" {detail}"
        pattern = getattr(op, "pattern", None)
        if pattern is not None:
            line += f"  [est. {estimate_cardinality(graph, pattern)}]"
        lines.append(line)
        for label, child in op.children():
            lines.append(f"{indent}  {label}:")
            lines.extend(_pipeline_lines(graph, child, indent + "    "))
    return lines


def _vectorized_lines(where_plan, batch_size) -> tuple[str, ...]:
    """Render what batched execution would do over ``where_plan``.

    Delegates to the vectorized engine's own static analyzer so explain
    never drifts from the real driver-selection rules.
    """
    from .vectorized import analyze_plan

    info = analyze_plan(where_plan, batch_size=batch_size)
    if info["driver"] is None:
        driver = "driver: (none — batches fall back per-row)"
    else:
        driver = f"driver: {info['driver']}  [~{info['batches']} batch(es)]"
    return (f"batch size {info['batch_size']}", driver)


def _compiled_tree(graph, query: SelectQuery, optimize: bool,
                   batch_size=None):
    """(engine, reason, tree, vectorized lines) via the real compilers."""
    from .aggregator import compile_aggregate_ex
    from .operators import OrderLimit, compile_where

    if query.is_aggregate_query:
        plan, reason = compile_aggregate_ex(graph, query, optimize=optimize)
        if plan is None:
            return "term-space", reason, (), ()
        lines = _pipeline_lines(graph, plan.body.root)
        keys = ", ".join(v.n3() for v in plan.group_vars) or "(single group)"
        lines.append(
            f"AggregateFold {len(plan.specs)} aggregates; keys {keys}"
        )
        where_plan = plan.body
    else:
        plan, reason = compile_where(graph, query.where, optimize=optimize)
        if plan is None:
            return "term-space", reason, (), ()
        lines = _pipeline_lines(graph, plan.root)
        where_plan = plan
    vec = _vectorized_lines(where_plan, batch_size)
    if query.order_by:
        top_k = None
        if query.limit is not None:
            top_k = query.limit + (query.offset or 0)
        if not query.is_aggregate_query and query.distinct:
            # Solution-space top-k would truncate rows DISTINCT still needs.
            top_k = None
        order = OrderLimit(tuple(query.order_by), top_k)
        lines.append(f"OrderLimit {order.describe()}")
    return "compiled", None, tuple(lines), vec


def explain(
    graph,
    query: SelectQuery | str,
    optimize: bool = True,
    compile: bool = True,
    batch_size: int | None = None,
) -> QueryPlan:
    """The execution plan ``Evaluator`` would use for ``query``.

    ``optimize``/``compile`` mirror the Evaluator's flags, so the
    ``engine:`` header reflects what an identically configured evaluator
    does.  The flat join-order steps cover the top-level group's triple
    patterns; the physical plan tree covers the whole WHERE clause.
    ``batch_size`` feeds the vectorized section: which scan drives the
    batches, and how many batches the store would split it into.
    """
    if isinstance(query, str):
        parsed = parse_query(query)
        if not isinstance(parsed, SelectQuery):
            raise TypeError("explain() requires a SELECT query")
        query = parsed
    if not isinstance(query, SelectQuery):
        raise TypeError("explain() requires a SELECT query")

    if compile:
        engine, reason, tree, vec = _compiled_tree(
            graph, query, optimize, batch_size=batch_size)
    else:
        engine, reason, tree, vec = "term-space", "compile-disabled", (), ()

    patterns = query.where.triple_patterns()
    ordered = order_patterns(graph, list(patterns)) if optimize and len(patterns) > 1 else list(patterns)
    steps = []
    bound: set[str] = set()
    for position, pattern in enumerate(ordered, start=1):
        fresh = tuple(
            sorted(v.name for v in pattern.variables() if v.name not in bound)
        )
        bound.update(fresh)
        steps.append(
            PlanStep(
                position=position,
                pattern=pattern,
                estimated_cardinality=estimate_cardinality(graph, pattern),
                binds=fresh,
            )
        )
    return QueryPlan(
        steps=tuple(steps),
        optimized=optimize,
        engine=engine,
        decline_reason=reason,
        tree=tree,
        vectorized=vec,
    )
