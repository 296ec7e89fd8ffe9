"""Query plan explanation.

``explain`` reports how the evaluator would execute a SELECT query:

* an ``engine:`` header saying which engine :class:`~repro.sparql.eval.
  Evaluator` would *really* use — ``compiled`` when the unified id-space
  operator pipeline accepts the query, ``term-space`` (with the decline
  reason) when it falls back — decided by running the actual compiler,
  not by re-implementing its rules;
* for compiled queries, the physical plan tree: every operator
  (IndexScan/NestedProbe, Filter, ValuesBind, Bind, SubqueryScan,
  LeftJoin, Union, Exists, Minus, PathClosure) in the order it runs,
  with its cardinality estimate where one exists, nested OPTIONAL/UNION/
  EXISTS/MINUS/subquery sub-pipelines indented beneath their parent,
  plus the AggregateFold and OrderLimit stages when the query has them.
  The scans' order is the join order;
* for compiled queries, the ``vectorized:`` section: the batch size and
  the scan that drives the batches, or why no scan does.

This module never executes the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import SelectQuery
from .optimizer import estimate_cardinality
from .parser import parse_query

__all__ = ["QueryPlan", "explain"]


@dataclass(frozen=True)
class QueryPlan:
    """The execution plan of one query: engine and operator tree."""

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
        return "\n".join(lines)


def _pipeline_lines(graph, pipeline, indent: str = "") -> list[str]:
    """Render one GroupPipeline's schedule, recursing into sub-plans.

    Operators over a triple pattern carry the catalog's cardinality
    estimate for it.
    """
    if pipeline.empty:
        return [f"{indent}EmptyGroup {pipeline.empty_pattern.to_sparql()}"
                "  [constant absent from graph]"]
    lines: list[str] = []
    for op in pipeline.ops:
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


#: What runs when no scan drives the batches, by ``analyze_plan``'s reason.
_NO_DRIVER = {
    "empty": "a constant is absent from the graph, nothing runs",
    "buffered writes": "buffered writes: one seed row, and scans and "
                       "probes take the per-row fallback",
    "no driving scan": "no driving scan: every operator runs batched "
                       "from one seed row",
}


def _vectorized_lines(where_plan, batch_size) -> tuple[str, ...]:
    """Render what batched execution would do over ``where_plan``.

    Delegates to the vectorized engine's own static analyzer so explain
    never drifts from the real driver-selection rules.
    """
    from .vectorized import analyze_plan

    info = analyze_plan(where_plan, batch_size=batch_size)
    if info["driver"] is None:
        driver = f"driver: (none — {_NO_DRIVER[info['no_driver']]})"
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
    batch_size: int | None = None,
) -> QueryPlan:
    """The execution plan ``Evaluator`` would use for ``query``.

    ``optimize`` mirrors the Evaluator's flag: with it off, the scans keep
    the query's text order.  ``batch_size`` feeds the vectorized section:
    which scan drives the batches, and how many batches the store would
    split it into.
    """
    if isinstance(query, str):
        parsed = parse_query(query)
        if not isinstance(parsed, SelectQuery):
            raise TypeError("explain() requires a SELECT query")
        query = parsed
    if not isinstance(query, SelectQuery):
        raise TypeError("explain() requires a SELECT query")
    engine, reason, tree, vec = _compiled_tree(
        graph, query, optimize, batch_size=batch_size)
    return QueryPlan(engine=engine, decline_reason=reason, tree=tree,
                     vectorized=vec)
