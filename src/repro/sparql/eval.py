"""SPARQL query evaluation engine.

The :class:`Evaluator` executes parsed queries against any object exposing
the graph pattern-matching API (:class:`~repro.store.graph.Graph` or
:class:`~repro.store.dataset.GraphView`).  Evaluation follows SPARQL
semantics for the supported subset:

* group graph patterns join VALUES, triple patterns (with property paths),
  UNION branches, and OPTIONAL (left join) elements;
* FILTERs apply over the group, with expression errors removing the row;
* GROUP BY partitions solutions; aggregates (COUNT/SUM/MIN/MAX/AVG/SAMPLE)
  evaluate per group, skipping error rows; HAVING filters groups;
* DISTINCT, ORDER BY, LIMIT and OFFSET apply as in
  :func:`~repro.sparql.operators.finish_select`, which compiled
  subqueries share.

A deadline can be supplied to bound evaluation time, which is how the
endpoint reproduces the triplestore timeouts discussed in the paper's
Similarity-Search experiment (Section 7.1).
"""

from __future__ import annotations

import time
from typing import Iterable

from ..errors import QueryEvaluationError, QueryTimeoutError
from ..rdf.terms import IRI, Literal, Node, Variable, XSD_DOUBLE, XSD_INTEGER
from .ast import (
    Aggregate,
    Arithmetic,
    AskQuery,
    BoolOp,
    Comparison,
    Expression,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    InExpr,
    NotExpr,
    PropertyPath,
    Query,
    SelectQuery,
    TermExpr,
    TriplePattern,
    ValuesClause,
)
from .expressions import ExpressionError, effective_boolean_value, evaluate
from .operators import compile_where, finish_select
from .optimizer import order_patterns
from .parser import parse_query
from .paths import eval_path
from .results import ResultSet

__all__ = ["Evaluator", "evaluate_query"]

Binding = dict[Variable, Node]

# How many pattern extensions between deadline checks.
_DEADLINE_STRIDE = 2048


class _Deadline:
    """Cheap cooperative timeout checker threaded through evaluation."""

    __slots__ = ("expires_at", "_countdown")

    def __init__(self, timeout_seconds: float | None):
        self.expires_at = None if timeout_seconds is None else time.monotonic() + timeout_seconds
        # Check on the very first operation so even tiny queries observe an
        # already-expired deadline, then fall back to the stride.
        self._countdown = 1

    def check(self) -> None:
        if self.expires_at is None:
            return
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = _DEADLINE_STRIDE
            if time.monotonic() > self.expires_at:
                raise QueryTimeoutError("query evaluation exceeded the deadline")


class Evaluator:
    """Evaluates SPARQL queries against a graph or graph view.

    ``compile=True`` (the default) lowers whole WHERE bodies — BGPs,
    OPTIONAL, UNION, VALUES, BIND, EXISTS/NOT EXISTS, MINUS, nested
    subqueries, and property paths included — onto the unified id-space
    physical-operator pipeline (:mod:`repro.sparql.operators`), and
    qualifying aggregate SELECTs all the way into the fused grouping
    pipeline (:mod:`repro.sparql.aggregator`).  ``compile=False`` keeps
    the term-space interpreter, retained purely as the differential
    oracle; lowering now declines only unsupported path shapes and
    stores without an id backend (multi-graph union views).  Plans are
    compiled per execution; lowering costs a fraction of a millisecond.
    """

    def __init__(self, graph, optimize: bool = True, compile: bool = True,
                 stats=None, vectorize: bool = True,
                 batch_size: int | None = None):
        self.graph = graph
        self.optimize = optimize
        self.compile = compile
        # Optional EndpointStats sink: once per SELECT the evaluator counts
        # which engine ran it (fused/compiled vs. fallback, batched vs.
        # tuple) and tallies why a shape fell back.
        self.stats = stats
        # Batched execution of compiled plans (repro.sparql.vectorized):
        # block-at-a-time operators over columnar batches.  vectorize=False
        # pins the tuple-at-a-time operator loop — the differential oracle.
        if vectorize:
            from .vectorized import VecConfig

            self.vec_config = VecConfig(batch_size=batch_size, stats=stats)
        else:
            self.vec_config = None

    def _tally(self, counter: str, reason: str | None = None) -> None:
        """Bump one engine counter on the stats sink, with a decline reason."""
        if self.stats is not None:
            self.stats.add(counter)
            if reason is not None:
                self.stats.add_decline(reason)

    def _join_order(self, patterns, available):
        """The interpreter's join order for one BGP."""
        if self.optimize and len(patterns) > 1:
            return order_patterns(self.graph, patterns, bound=available)
        return list(patterns)

    def _aggregate_plan(self, query: SelectQuery):
        """Compile a fused aggregation plan.

        Returns ``(plan, reason)`` where ``plan`` is None — with a stable
        decline reason — when the query must fall back to term space.
        """
        if not self.compile:
            return None, "compile-disabled"
        from .aggregator import compile_aggregate_ex

        return compile_aggregate_ex(self.graph, query, optimize=self.optimize)

    def _where_plan(self, where: GroupGraphPattern):
        """Compile a physical plan for a whole WHERE group.

        Returns ``(plan, reason)``; ``plan`` is None — with a stable
        decline reason — when the group must run on the term-space
        interpreter.
        """
        if not self.compile:
            return None, "compile-disabled"
        return compile_where(self.graph, where, optimize=self.optimize)

    # -- public API ----------------------------------------------------------

    def select(self, query: SelectQuery | str, timeout: float | None = None,
               counted: bool = True) -> ResultSet:
        """Evaluate a SELECT query; returns a :class:`ResultSet`.

        ``counted=False`` suppresses the engine counters — used for the
        nested evaluation of subqueries, which would otherwise double-count
        one endpoint-visible query.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, SelectQuery):
            raise QueryEvaluationError("select() requires a SELECT query")
        deadline = _Deadline(timeout)
        if query.is_aggregate_query:
            plan, reason = self._aggregate_plan(query)
            if plan is not None:
                # Fused path: the compiled join streams id rows straight
                # into per-group accumulators, never materializing
                # solutions or term-space bindings.  With a vec config the
                # body runs batched and accumulators fold whole segments.
                rows, variables = plan.execute(
                    deadline, vec=self.vec_config,
                    stats=self.stats if counted else None)
                if counted:
                    self._tally("tuple_executions" if self.vec_config is None
                                else "batched_executions")
            else:
                solutions = self._eval_group(query.where, [dict()], deadline)
                rows, variables = self._aggregate(query, solutions, deadline)
            if counted:
                self._tally("fused_aggregates" if plan is not None
                            else "fallback_aggregates", reason)
            return ResultSet(variables, finish_select(query, variables, rows=rows))
        plan, reason = self._where_plan(query.where)
        if counted:
            self._tally("compiled_selects" if plan is not None
                        else "fallback_selects", reason)
        variables = query.output_variables()
        rows = solutions = None
        if plan is None:
            solutions = self._eval_group(query.where, [dict()], deadline)
        elif self.vec_config is None:
            solutions = plan.solutions(deadline)
        else:
            from .vectorized import vec_rows, vec_solutions

            fast_vars = self._bare_projection(query)
            if fast_vars is not None:
                # All projections are bare variables and no ORDER BY
                # runs: result rows assemble straight from the decoded
                # batch columns, skipping binding dicts.
                rows = vec_rows(plan, fast_vars, deadline, self.vec_config)
            else:
                solutions = vec_solutions(plan, deadline, self.vec_config)
        if plan is not None and counted:
            self._tally("tuple_executions" if self.vec_config is None
                        else "batched_executions")
        return ResultSet(variables, finish_select(
            query, variables, solutions=solutions, rows=rows))

    def ask(self, query: AskQuery | str, timeout: float | None = None) -> bool:
        """Evaluate an ASK query; returns whether any solution exists.

        Evaluation stops at the first complete solution — the behaviour
        real endpoints give ASK probes, and what keeps REOLAP's
        per-candidate validation independent of the store size.  The
        interpreter does the same for groups of only triple patterns and
        filters, by backtracking.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, AskQuery):
            raise QueryEvaluationError("ask() requires an ASK query")
        deadline = _Deadline(timeout)
        plan, _reason = self._where_plan(query.where)
        if plan is not None:
            # Lazy pipeline: stops at the first complete row.  ASK stays
            # tuple-at-a-time even with vectorize on — first-row latency
            # beats batch throughput when one row settles the answer.
            return plan.any(deadline)
        if all(isinstance(e, (TriplePattern, Filter)) for e in query.where.elements):
            return self._ask_exists(query.where, deadline)
        return bool(self._eval_group(query.where, [dict()], deadline, stop_at=1))

    def construct(self, query: "ConstructQuery | str", timeout: float | None = None):
        """Evaluate a CONSTRUCT query; returns a new Graph.

        Template triples left incomplete by unbound variables, or whose
        instantiation violates RDF positional rules (e.g. a literal
        subject), are skipped per the SPARQL specification.
        """
        from ..store.graph import Graph as _Graph
        from .ast import ConstructQuery

        if isinstance(query, str):
            query = parse_query(query)
        if not isinstance(query, ConstructQuery):
            raise QueryEvaluationError("construct() requires a CONSTRUCT query")
        deadline = _Deadline(timeout)
        plan, _reason = self._where_plan(query.where)
        if plan is not None:
            if self.vec_config is not None:
                from .vectorized import vec_solutions

                solutions = vec_solutions(plan, deadline, self.vec_config)
            else:
                solutions = plan.solutions(deadline)
        else:
            solutions = self._eval_group(query.where, [dict()], deadline)
        result = _Graph()
        from ..rdf.triple import Triple as _Triple

        emitted = 0
        for binding in solutions:
            for pattern in query.template:
                s = _resolve(pattern.s, binding) if isinstance(pattern.s, Variable) else pattern.s
                p = _resolve(pattern.p, binding) if isinstance(pattern.p, Variable) else pattern.p
                o = _resolve(pattern.o, binding) if isinstance(pattern.o, Variable) else pattern.o
                if s is None or p is None or o is None:
                    continue
                try:
                    triple = _Triple(s, p, o)
                except TypeError:
                    continue  # e.g. literal in subject position
                if result.add(triple):
                    emitted += 1
                    if query.limit is not None and emitted >= query.limit:
                        return result
        return result

    def _ask_exists(self, group: GroupGraphPattern, deadline: _Deadline) -> bool:
        """Depth-first existence check over a pattern-only group."""
        patterns = group.triple_patterns()
        filters = list(group.filters())
        patterns = self._join_order(patterns, set())

        def search(index: int, binding: Binding, pending: list[Filter]) -> bool:
            if index == len(patterns):
                return bool(_apply_filters([binding], pending))
            pattern = patterns[index]
            s_term = _resolve(pattern.s, binding)
            o_term = _resolve(pattern.o, binding)
            predicate = pattern.p
            if isinstance(predicate, PropertyPath):
                candidates = (
                    _try_bind(binding, pattern, subj, None, obj)
                    for subj, obj in eval_path(self.graph, predicate, s_term, o_term, deadline)
                )
            else:
                p_term = (
                    _resolve(predicate, binding)
                    if isinstance(predicate, Variable) else predicate
                )
                candidates = (
                    _try_bind(binding, pattern, t.s, t.p, t.o)
                    for t in self.graph.triples(s_term, p_term, o_term)
                )
            for extended in candidates:
                deadline.check()
                if extended is None:
                    continue
                ready = [
                    f for f in pending if f.expression.variables() <= extended.keys()
                ]
                if ready and not _apply_filters([extended], ready):
                    continue
                remaining = [f for f in pending if f not in ready]
                if search(index + 1, extended, remaining):
                    return True
            return False

        return search(0, {}, filters)

    # -- group graph pattern -------------------------------------------------

    def _eval_group(
        self,
        group: GroupGraphPattern,
        initial: list[Binding],
        deadline: _Deadline,
        stop_at: int | None = None,
    ) -> list[Binding]:
        (values_clauses, subselects, patterns, filters, unions, optionals,
         binds, exists_filters, minus_patterns) = group.partition()

        solutions = list(initial)
        available: set[Variable] = set()
        for binding in initial:
            available |= set(binding)

        for clause in values_clauses:
            solutions = _join_values(solutions, clause)
            available |= set(clause.variables_)
        for subselect in subselects:
            # Bottom-up: evaluate the subquery independently, then join its
            # solutions with the group's on shared variables.
            inner = self.select(subselect.query, counted=False)
            rows = tuple(tuple(row) for row in inner.rows)
            clause = ValuesClause(tuple(inner.variables), rows)
            solutions = _join_values(solutions, clause)
            available |= set(inner.variables)

        pending = list(filters)
        for pattern in self._join_order(patterns, available):
            solutions = self._extend(solutions, pattern, deadline)
            available |= pattern.variables()
            # Apply every filter whose variables are all produced
            # already: shrinking the intermediate result early is the
            # main lever the engine has against large joins.
            ready = [f for f in pending if f.expression.variables() <= available]
            if ready:
                pending = [f for f in pending if f not in ready]
                solutions = _apply_filters(solutions, ready)
            if not solutions:
                break
        for union in unions:
            merged: list[Binding] = []
            for binding in solutions:
                for branch in union.branches:
                    merged.extend(self._eval_group(branch, [binding], deadline))
            solutions = merged
            for branch in union.branches:
                available |= branch.variables()
        for optional in optionals:
            extended: list[Binding] = []
            for binding in solutions:
                matches = self._eval_group(optional.pattern, [binding], deadline)
                extended.extend(matches if matches else [binding])
            solutions = extended
        for bind in binds:
            if bind.variable in available:
                raise QueryEvaluationError(
                    f"BIND would rebind in-scope variable {bind.variable.n3()}"
                )
            available.add(bind.variable)
            for binding in solutions:
                try:
                    binding[bind.variable] = evaluate(bind.expression, binding)
                except ExpressionError:
                    pass  # SPARQL: an erroring BIND leaves the variable unbound
        for exists in exists_filters:
            kept: list[Binding] = []
            for binding in solutions:
                matched = bool(self._eval_group(exists.pattern, [binding], deadline, stop_at=1))
                if matched != exists.negated:
                    kept.append(binding)
            solutions = kept
        for minus in minus_patterns:
            right = self._eval_group(minus.pattern, [dict()], deadline)
            solutions = [
                binding for binding in solutions
                if not _minus_removes(binding, right)
            ]
        if pending:
            solutions = _apply_filters(solutions, pending)
        if stop_at is not None:
            return solutions[:stop_at]
        return solutions

    def _extend(
        self, solutions: list[Binding], pattern: TriplePattern, deadline: _Deadline
    ) -> list[Binding]:
        result: list[Binding] = []
        predicate = pattern.p
        for binding in solutions:
            s_term = _resolve(pattern.s, binding)
            o_term = _resolve(pattern.o, binding)
            if isinstance(predicate, PropertyPath):
                for subj, obj in eval_path(self.graph, predicate, s_term, o_term, deadline):
                    deadline.check()
                    extended = _try_bind(binding, pattern, subj, None, obj)
                    if extended is not None:
                        result.append(extended)
                continue
            p_term = _resolve(predicate, binding) if isinstance(predicate, Variable) else predicate
            for triple in self.graph.triples(s_term, p_term, o_term):
                deadline.check()
                extended = _try_bind(binding, pattern, triple.s, triple.p, triple.o)
                if extended is not None:
                    result.append(extended)
        return result

    # -- projection and aggregation -------------------------------------------

    @staticmethod
    def _bare_projection(query: SelectQuery):
        """Source variables for the batched direct-projection fast path.

        Returns the per-column source variable list when every projection
        is a bare variable (``SELECT *`` or ``SELECT ?x (?y AS ?z)``) and
        no ORDER BY needs full solutions first; None otherwise.  Matches
        ``finish_select``'s projection exactly: a bare-variable expression
        evaluates to the binding's term or None when unbound.
        """
        if query.order_by:
            return None
        if query.select_all:
            return query.output_variables()
        sources = []
        for projection in query.projections:
            expr = projection.expression
            if isinstance(expr, TermExpr) and isinstance(expr.term, Variable):
                sources.append(expr.term)
            else:
                return None
        return sources

    def _aggregate(
        self, query: SelectQuery, solutions: list[Binding], deadline: _Deadline
    ) -> tuple[list[tuple], list[Variable]]:
        group_vars = list(query.group_by)
        groups: dict[tuple, list[Binding]] = {}
        if group_vars:
            for binding in solutions:
                deadline.check()
                key = tuple(binding.get(v) for v in group_vars)
                groups.setdefault(key, []).append(binding)
        else:
            groups[()] = solutions

        variables = [p.variable for p in query.projections]
        rows: list[tuple] = []
        for key, members in groups.items():
            key_binding: Binding = dict(zip(group_vars, key))
            # SPARQL keeps groups whose key has unbound components: the key
            # tuple carries None there, and projecting such a variable
            # yields an unbound (None) cell — groups are never dropped for
            # missing keys, only by HAVING.
            keep = True
            for having in query.having:
                try:
                    value = _eval_grouped(having, members, key_binding)
                    if not effective_boolean_value(value):
                        keep = False
                        break
                except ExpressionError:
                    keep = False
                    break
            if not keep:
                continue
            row = []
            for projection in query.projections:
                try:
                    row.append(_eval_grouped(projection.expression, members, key_binding))
                except ExpressionError:
                    row.append(None)
            rows.append(tuple(row))
        return rows, variables


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------


def _resolve(term, binding: Binding):
    """Map a pattern position to a concrete term or a wildcard (None)."""
    if isinstance(term, Variable):
        return binding.get(term)
    return term


def _try_bind(binding: Binding, pattern: TriplePattern, s, p, o) -> Binding | None:
    """Extend ``binding`` with the match, or None on an inconsistency."""
    extended = dict(binding)
    for position, value in ((pattern.s, s), (pattern.p, p), (pattern.o, o)):
        if not isinstance(position, Variable) or value is None:
            continue
        bound = extended.get(position)
        if bound is None:
            extended[position] = value
        elif bound != value:
            return None
    return extended


def _join_values(solutions: list[Binding], clause: ValuesClause) -> list[Binding]:
    joined: list[Binding] = []
    for binding in solutions:
        for row in clause.rows:
            candidate = dict(binding)
            compatible = True
            for variable, value in zip(clause.variables_, row):
                if value is None:  # UNDEF leaves the variable as-is.
                    continue
                bound = candidate.get(variable)
                if bound is None:
                    candidate[variable] = value
                elif bound != value:
                    compatible = False
                    break
            if compatible:
                joined.append(candidate)
    return joined


def _apply_filters(solutions: list[Binding], filters: Iterable[Filter]) -> list[Binding]:
    kept = solutions
    for constraint in filters:
        passing: list[Binding] = []
        for binding in kept:
            try:
                if effective_boolean_value(evaluate(constraint.expression, binding)):
                    passing.append(binding)
            except ExpressionError:
                continue  # SPARQL: an erroring filter removes the row.
        kept = passing
    return kept


def _minus_removes(binding: Binding, right: list[Binding]) -> bool:
    """SPARQL MINUS: drop μ when some μ' is compatible with shared domain."""
    for other in right:
        shared = binding.keys() & other.keys()
        if not shared:
            continue
        if all(binding[v] == other[v] for v in shared):
            return True
    return False


def _eval_grouped(expression: Expression, members: list[Binding], key_binding: Binding) -> Node:
    """Evaluate an expression in a grouping context.

    Aggregate sub-expressions are computed over the group's solutions
    (skipping rows whose argument errors, per SPARQL); everything else is
    evaluated against the group-key binding.
    """
    if isinstance(expression, Aggregate):
        return _compute_aggregate(expression, members)
    if isinstance(expression, TermExpr):
        return evaluate(expression, key_binding)
    if isinstance(expression, Comparison):
        from .expressions import term_compare

        left = _eval_grouped(expression.left, members, key_binding)
        right = _eval_grouped(expression.right, members, key_binding)
        result = term_compare(left, right, expression.op)
        from .expressions import FALSE, TRUE

        return TRUE if result else FALSE
    if isinstance(expression, Arithmetic):
        left = _eval_grouped(expression.left, members, key_binding)
        right = _eval_grouped(expression.right, members, key_binding)
        rewritten = Arithmetic(expression.op, TermExpr(left), TermExpr(right))
        return evaluate(rewritten, {})
    if isinstance(expression, (BoolOp, NotExpr, FunctionCall, InExpr)):
        # Recursively resolve aggregates, then evaluate the residual
        # expression against the key binding.
        resolved = _resolve_aggregates(expression, members)
        return evaluate(resolved, key_binding)
    return evaluate(expression, key_binding)


def _resolve_aggregates(expression: Expression, members: list[Binding]) -> Expression:
    if isinstance(expression, Aggregate):
        return TermExpr(_compute_aggregate(expression, members))
    if isinstance(expression, Comparison):
        return Comparison(
            expression.op,
            _resolve_aggregates(expression.left, members),
            _resolve_aggregates(expression.right, members),
        )
    if isinstance(expression, Arithmetic):
        return Arithmetic(
            expression.op,
            _resolve_aggregates(expression.left, members),
            _resolve_aggregates(expression.right, members),
        )
    if isinstance(expression, BoolOp):
        return BoolOp(
            expression.op,
            tuple(_resolve_aggregates(o, members) for o in expression.operands),
        )
    if isinstance(expression, NotExpr):
        return NotExpr(_resolve_aggregates(expression.operand, members))
    if isinstance(expression, FunctionCall):
        return FunctionCall(
            expression.name,
            tuple(_resolve_aggregates(a, members) for a in expression.args),
        )
    if isinstance(expression, InExpr):
        return InExpr(
            _resolve_aggregates(expression.operand, members),
            tuple(_resolve_aggregates(o, members) for o in expression.options),
            expression.negated,
        )
    return expression


def _compute_aggregate(aggregate: Aggregate, members: list[Binding]) -> Node:
    if aggregate.func == "COUNT" and aggregate.arg is None:
        return Literal(str(len(members)), datatype=XSD_INTEGER)
    values: list[Node] = []
    for binding in members:
        try:
            values.append(evaluate(aggregate.arg, binding))
        except ExpressionError:
            continue  # SPARQL: rows whose aggregate argument errors are skipped.
    if aggregate.distinct:
        seen: set[Node] = set()
        unique: list[Node] = []
        for value in values:
            if value not in seen:
                seen.add(value)
                unique.append(value)
        values = unique
    func = aggregate.func
    if func == "COUNT":
        return Literal(str(len(values)), datatype=XSD_INTEGER)
    if func == "GROUP_CONCAT":
        parts = []
        for value in values:
            if isinstance(value, Literal):
                parts.append(value.lexical)
            elif isinstance(value, IRI):
                parts.append(value.value)
            else:
                raise ExpressionError(f"GROUP_CONCAT over {value!r}")
        return Literal(" ".join(parts))
    if func == "SAMPLE":
        if not values:
            raise ExpressionError("SAMPLE over an empty group")
        return values[0]
    if func in ("MIN", "MAX"):
        if not values:
            raise ExpressionError(f"{func} over an empty group")
        # Single pass instead of a full sort.  Replacement rules replicate
        # the stable sort this used to be: MIN keeps the first minimal
        # value (strict <), MAX the last maximal one (>=).
        best = values[0]
        best_key = best.sort_key()
        if func == "MIN":
            for value in values[1:]:
                key = value.sort_key()
                if key < best_key:
                    best, best_key = value, key
        else:
            for value in values[1:]:
                key = value.sort_key()
                if key >= best_key:
                    best, best_key = value, key
        return best
    # SUM / AVG over numeric literals.
    numbers: list[float] = []
    for value in values:
        if not isinstance(value, Literal) or not value.is_numeric:
            raise ExpressionError(f"{func} over non-numeric value {value!r}")
        numbers.append(value.numeric_value())
    if func == "SUM":
        total = sum(numbers)
        return _number_literal(total)
    if func == "AVG":
        if not numbers:
            return Literal("0", datatype=XSD_INTEGER)
        return _number_literal(sum(numbers) / len(numbers))
    raise ExpressionError(f"unsupported aggregate {func}")


#: XSD's lexical forms of the non-finite doubles (``repr`` gives
#: ``inf``, ``-inf`` and ``nan``, which no XSD parser reads back).
_NON_FINITE = {"inf": "INF", "-inf": "-INF", "nan": "NaN"}


def _number_literal(value: float) -> Literal:
    if float(value).is_integer() and abs(value) < 1e15:
        return Literal(str(int(value)), datatype=XSD_INTEGER)
    lexical = repr(value)
    return Literal(_NON_FINITE.get(lexical, lexical), datatype=XSD_DOUBLE)


def evaluate_query(graph, query: Query | str, timeout: float | None = None):
    """One-shot evaluation: SELECT → ResultSet, ASK → bool, CONSTRUCT → Graph."""
    from .ast import ConstructQuery

    if isinstance(query, str):
        query = parse_query(query)
    evaluator = Evaluator(graph)
    if isinstance(query, AskQuery):
        return evaluator.ask(query, timeout=timeout)
    if isinstance(query, ConstructQuery):
        return evaluator.construct(query, timeout=timeout)
    return evaluator.select(query, timeout=timeout)
