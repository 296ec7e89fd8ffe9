"""Fused id-space GROUP BY / aggregation over the operator pipeline.

Every query the paper's workloads run — REOLAP candidates, refinement
probes, the figure benchmarks — is an aggregate ``SELECT … GROUP BY``
over observations.  :func:`compile_aggregate_ex` lowers a qualifying
query into an :class:`AggregatePlan`: the compiled WHERE body, grouping
on its integer register ids (the dictionary is bijective, so id grouping
is term grouping; an unbound key groups as ``None``), HAVING, projections.

* **Tuple-at-a-time**, rows stream into a dict of per-group accumulators,
  one ``add`` per aggregate per row: the differential oracle.
* **Group table**, batched: all batches are concatenated, every row gets
  a dense group id in first-occurrence order (the tuple engine's group
  order), and each aggregate folds into one array — ``bincount`` counts,
  unique (group, id) pairs for DISTINCT, in-order ``np.add.at`` sums
  (bit-identical to the row-by-row fold), (rank, row position)
  ``lexsort`` MIN/MAX, first-position SAMPLE.  GROUP_CONCAT and a
  malformed number (a NaN literal) depend on the row order: they replay
  the columns through the same ``add``.

Both finish column by column: distinct keys and MIN/MAX ids decode once,
each distinct count or number becomes one ``Literal`` per execution, and
HAVING and computed projections run per group over the finished columns.

A query qualifies when its WHERE clause compiles under
:func:`repro.sparql.operators.compile_where`, its GROUP BY keys are
variables, and every aggregate takes ``*`` or a bare variable; anything
else returns ``(None, reason)`` for the term-space ``_aggregate`` path.
Errors mirror that path: unbound arguments are skipped, a non-numeric
value errors SUM/AVG (projected ``None``, HAVING drops the group), as do
a blank node in GROUP_CONCAT and an empty MIN/MAX/SAMPLE; a malformed
number raises.
"""

from __future__ import annotations

import numpy as _np

from ..rdf.terms import IRI, Literal, Node, Variable, XSD_INTEGER
from ..store.index import MALFORMED, NOT_NUMERIC, numeric_of
from .ast import (
    Aggregate,
    Arithmetic,
    BoolOp,
    Comparison,
    Expression,
    FunctionCall,
    InExpr,
    NotExpr,
    SelectQuery,
    TermExpr,
)
from .eval import _number_literal
from .expressions import ExpressionError, effective_boolean_value
from .operators import _ExecContext, compile_where
from .rexpr import compile_expression
from .vectorized import UNBOUND, _VecCtx, collect_batches

__all__ = ["AggregatePlan", "compile_aggregate", "compile_aggregate_ex"]


class _AggError:
    """The value of an errored aggregate, so one error does not abort the
    group: projections render it as ``None``, HAVING drops the group."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<aggregate error>"


_ERROR = _AggError()


def _count_literal(n: int) -> Literal:
    return Literal(str(n), datatype=XSD_INTEGER)


class _ExecState:
    """Per-execution decode memos shared by every aggregate.

    Numeric values are not memoized here: ``numeric`` reads the term
    dictionary's own memo, which outlives the execution.
    """

    __slots__ = ("decode", "_numeric", "terms", "strings", "sort_keys",
                 "_counts", "_numbers")

    def __init__(self, decode, numeric):
        self.decode = decode  # the execution context's codec
        self._numeric = numeric  # the term dictionary's NumericMemo.numeric
        self.terms: dict[int, Node] = {}
        self.strings: dict[int, object] = {}
        self.sort_keys: dict[int, tuple] = {}
        self._counts: dict[int, Literal] = {}
        self._numbers: dict[float, Literal] = {}

    def term(self, term_id: int) -> Node:
        term = self.terms.get(term_id)
        if term is None:
            term = self.decode(term_id)
            self.terms[term_id] = term
        return term

    def numeric(self, term_id: int):
        """The id's float, ``NOT_NUMERIC`` or ``MALFORMED``."""
        if term_id < 0:  # plan-local pseudo id: not in the dictionary
            return numeric_of(self.term(term_id))
        return self._numeric(term_id)

    def number(self, term_id: int):
        value = self.numeric(term_id)
        if value is NOT_NUMERIC:
            return _ERROR
        if value is MALFORMED:
            # A NaN literal raises ValueError here, exactly as the
            # term-space path's numeric_value() call does.
            self.term(term_id).numeric_value()
        return value

    def string(self, term_id: int):
        value = self.strings.get(term_id)
        if value is None:
            term = self.term(term_id)
            if isinstance(term, Literal):
                value = term.lexical
            elif isinstance(term, IRI):
                value = term.value
            else:
                value = _ERROR  # GROUP_CONCAT over a blank node errors
            self.strings[term_id] = value
        return value

    def sort_key(self, term_id: int) -> tuple:
        key = self.sort_keys.get(term_id)
        if key is None:
            key = self.term(term_id).sort_key()
            self.sort_keys[term_id] = key
        return key

    def literals(self, values: list, count: bool = False) -> list:
        """The literal of each COUNT integer (``count``) or SUM/AVG
        float, each distinct value's built once per execution."""
        memo, make = ((self._counts, _count_literal) if count
                      else (self._numbers, _number_literal))
        for value in set(values).difference(memo):
            memo[value] = make(value)
        return [memo[value] for value in values]


# --------------------------------------------------------------------------
# Streaming accumulators (the tuple engine, and the group table's replay):
# ``add`` takes the id bound to the argument (None when unbound: skipped),
# ``finish`` gives an RDF term or the _ERROR sentinel.
# --------------------------------------------------------------------------


class _CountAll:
    """COUNT(*) — counts group members; DISTINCT is a no-op, exactly as in
    the term-space path (COUNT(*) never sees per-row values to dedup)."""

    __slots__ = ("n",)

    def __init__(self, state, distinct=False):
        self.n = 0

    def add(self, value_id) -> None:
        self.n += 1

    def finish(self, state):
        return _count_literal(self.n)


class _Count:
    __slots__ = ("n", "seen")

    def __init__(self, state, distinct=False):
        self.n = 0
        self.seen = set() if distinct else None

    def add(self, value_id) -> None:
        if value_id is None:
            return
        if self.seen is not None:
            self.seen.add(value_id)
        else:
            self.n += 1

    def finish(self, state):
        return _count_literal(len(self.seen) if self.seen is not None else self.n)


class _Sum:
    """SUM / AVG.  Non-distinct folds in row order; DISTINCT keeps ids in
    first-occurrence order (insertion-ordered dict) and folds at finish,
    so float summation order matches the term-space engine's exactly."""

    __slots__ = ("total", "n", "errored", "seen", "average", "state")

    def __init__(self, state, distinct=False, average=False):
        self.total = 0.0
        self.n = 0
        self.errored = False
        self.seen = {} if distinct else None
        self.average = average
        self.state = state

    def add(self, value_id) -> None:
        if value_id is None or self.errored:
            return
        if self.seen is not None:
            self.seen[value_id] = None
            return
        value = self.state.number(value_id)
        if value is _ERROR:
            self.errored = True
            return
        self.total += value
        self.n += 1

    def finish(self, state):
        if self.seen is not None:
            for value_id in self.seen:
                value = state.number(value_id)
                if value is _ERROR:
                    return _ERROR
                self.total += value
                self.n += 1
        elif self.errored:
            return _ERROR
        if self.average:
            if not self.n:
                return _count_literal(0)
            return _number_literal(self.total / self.n)
        return _number_literal(self.total)


class _MinMax:
    """Single-pass MIN/MAX over term sort keys.

    Tie handling replicates the stable full sort the term-space engine
    performs: MIN keeps the first minimal value, MAX the last maximal one.
    With DISTINCT, "last" means the value whose *first occurrence* is
    latest — repeats of an already-seen id are ignored, mirroring the
    first-occurrence dedup that precedes the sort.
    """

    __slots__ = ("best", "best_key", "is_max", "seen", "state")

    def __init__(self, state, distinct=False, is_max=False):
        self.best = None
        self.best_key = None
        self.is_max = is_max
        self.seen = set() if distinct else None
        self.state = state

    def add(self, value_id) -> None:
        if value_id is None:
            return
        if self.seen is not None:
            if value_id in self.seen:
                return
            self.seen.add(value_id)
        if self.best is None:
            self.best = value_id
            return
        sort_key = self.state.sort_key
        key = sort_key(value_id)
        if self.best_key is None:
            self.best_key = sort_key(self.best)
        if (key >= self.best_key) if self.is_max else (key < self.best_key):
            self.best, self.best_key = value_id, key

    def finish(self, state):
        if self.best is None:
            return _ERROR  # MIN/MAX over an empty group
        return state.term(self.best)


class _Sample:
    __slots__ = ("first",)

    def __init__(self, state, distinct=False):
        self.first = None

    def add(self, value_id) -> None:
        if self.first is None and value_id is not None:
            self.first = value_id

    def finish(self, state):
        if self.first is None:
            return _ERROR  # SAMPLE over an empty group
        return state.term(self.first)


class _GroupConcat:
    __slots__ = ("parts", "errored", "seen", "state")

    def __init__(self, state, distinct=False):
        self.parts: list[str] = []
        self.errored = False
        self.seen = set() if distinct else None
        self.state = state

    def add(self, value_id) -> None:
        if value_id is None or self.errored:
            return
        if self.seen is not None:
            if value_id in self.seen:
                return
            self.seen.add(value_id)
        part = self.state.string(value_id)
        if part is _ERROR:
            self.errored = True
            return
        self.parts.append(part)

    def finish(self, state):
        if self.errored:
            return _ERROR
        return Literal(" ".join(self.parts))


# --------------------------------------------------------------------------
# The group table: one array per aggregate over dense group ids
# --------------------------------------------------------------------------


#: Row count up to which group ids come from a dict, not ``np.unique``.
_SMALL_TABLE = 64


def _group_ids(cols: list, n: int, grouped: bool):
    """``(dense group id per row, first row of each group)``.

    Ids follow first occurrence: the order the tuple engine's dict
    creates groups in.  Multi-key grouping refines one ``np.unique``
    inverse per key column.  Without varying key columns every row is one
    group, which without GROUP BY exists even over zero rows.
    """
    if not cols:
        size = 1 if n or not grouped else 0
        return _np.zeros(n, dtype=_np.int64), _np.zeros(size, dtype=_np.int64)
    if n <= _SMALL_TABLE:  # a dict beats np.unique's fixed cost here
        ids: dict = {}
        gids, firsts = [], []
        for row, key in enumerate(zip(*(col.tolist() for col in cols))):
            gid = ids.get(key)
            if gid is None:
                gid = ids[key] = len(firsts)
                firsts.append(row)
            gids.append(gid)
        return (_np.array(gids, dtype=_np.int64),
                _np.array(firsts, dtype=_np.int64))
    code = cols[0]
    for col in cols[1:]:
        _uniq, code = _np.unique(code, return_inverse=True)
        uniq, inverse = _np.unique(col, return_inverse=True)
        code = code * len(uniq) + inverse
    _uniq, first, inverse = _np.unique(code, return_index=True,
                                       return_inverse=True)
    order = _np.argsort(first, kind="stable")
    renumber = _np.empty_like(order)
    renumber[order] = _np.arange(len(order))
    return renumber[inverse], first[order]


class _Column:
    """One aggregate argument column restricted to its bound rows, with
    the per-column work — distinct ids, their numbers, their sort-key
    ranks, the DISTINCT rows — done once for every aggregate reading it."""

    __slots__ = ("gids", "ids", "_distinct", "_numbers", "_ranks", "_firsts")

    def __init__(self, gids, col):
        bound = col != UNBOUND
        if bool(bound.all()):
            self.gids, self.ids = gids, col
        else:
            self.gids, self.ids = gids[bound], col[bound]
        self._distinct = self._numbers = self._ranks = self._firsts = None

    def distinct(self):
        """``(distinct ids as a list, inverse index per row)``."""
        if self._distinct is None:
            uniq, inverse = _np.unique(self.ids, return_inverse=True)
            self._distinct = (uniq.tolist(), inverse)
        return self._distinct

    def numbers(self, state):
        """``(float64 per distinct id, mask of the non-numeric ones or
        None)``, or None when some id is a malformed number (a NaN
        literal): its errors, and its place in the order, need the rows
        replayed."""
        if self._numbers is None:
            numbers = [state.numeric(t) for t in self.distinct()[0]]
            if MALFORMED in numbers:
                self._numbers = False
            elif NOT_NUMERIC in numbers:
                mask = _np.array([v is NOT_NUMERIC for v in numbers])
                self._numbers = (_np.array([0.0 if v is NOT_NUMERIC else v
                                            for v in numbers]), mask)
            else:
                self._numbers = (_np.array(numbers, dtype=_np.float64), None)
        return self._numbers or None

    def firsts(self):
        """Positions of each (group, id) pair's first row, in row order:
        the rows a DISTINCT aggregate folds."""
        if self._firsts is None:
            uniq, inverse = self.distinct()
            _pairs, first = _np.unique(self.gids * len(uniq) + inverse,
                                       return_index=True)
            first.sort()
            self._firsts = first
        return self._firsts

    def ranks(self, state):
        """Dense sort-key rank per row (equal keys share a rank).

        When every id is a number with a distinct value, the sort-key
        order is the numeric order and no term is decoded.  Callers rule
        out malformed numbers first.
        """
        if self._ranks is None:
            uniq, inverse = self.distinct()
            values, mask = self.numbers(state)
            rank = None
            if mask is None:
                ordered = _np.sort(values)
                if not bool((ordered[1:] == ordered[:-1]).any()):
                    rank = _np.searchsorted(ordered, values)
            if rank is None:  # equal numbers or other terms: full sort keys
                keys = [state.sort_key(t) for t in uniq]
                position = {key: i for i, key in enumerate(sorted(set(keys)))}
                rank = _np.array([position[key] for key in keys], dtype=_np.int64)
            self._ranks = rank[inverse]
        return self._ranks


def _table_count(column, size, state, distinct=False):
    if column is None:
        counts = _np.zeros(size, dtype=_np.int64)
    else:
        gids = column.gids[column.firsts()] if distinct else column.gids
        counts = _np.bincount(gids, minlength=size)
    return state.literals(counts.tolist(), count=True)


def _table_sum(column, size, state, distinct=False, average=False):
    """SUM/AVG: per-group totals added in row order (``np.add.at`` is an
    unbuffered, in-order fold, so each group performs exactly the float
    additions ``add`` would); a group holding a non-numeric id errors."""
    totals = _np.zeros(size, dtype=_np.float64)
    errored = []
    if column is not None:
        numbers = column.numbers(state)
        if numbers is None:
            return None
        values, mask = numbers
        gids, inverse = column.gids, column.distinct()[1]
        if distinct:
            rows = column.firsts()
            gids, inverse = gids[rows], inverse[rows]
        if mask is not None:  # non-numeric ids read 0.0 in errored groups
            errored = _np.flatnonzero(
                _np.bincount(gids[mask[inverse]], minlength=size)).tolist()
        with _np.errstate(over="ignore", invalid="ignore"):  # INF + -INF
            _np.add.at(totals, gids, values[inverse])
        if average:
            # An empty group averages to 0 / 1: the literal 0.
            totals /= _np.maximum(_np.bincount(gids, minlength=size), 1)
    out = state.literals(totals.tolist())
    for g in errored:
        out[g] = _ERROR
    return out


def _table_min_max(column, size, state, distinct=False, is_max=False):
    """Each group's (sort-key rank, row position) winner: the earliest
    minimal row, the latest maximal one — the sequential tie rules."""
    out = [_ERROR] * size  # MIN/MAX over an empty group errors
    if column is None:
        return out
    if column.numbers(state) is None:
        return None
    rank, gids, ids = column.ranks(state), column.gids, column.ids
    if distinct:
        rows = column.firsts()
        rank, gids, ids = rank[rows], gids[rows], ids[rows]
    # lexsort is stable: within a (group, rank) run rows keep their order.
    order = _np.lexsort((rank, gids))
    ordered = gids[order]
    change = ordered[1:] != ordered[:-1]
    if is_max:  # each group's last row: max rank, latest
        edge = _np.flatnonzero(_np.append(change, True))
    else:  # each group's first row: min rank, earliest
        edge = _np.flatnonzero(_np.insert(change, 0, True))
    term = state.term
    for g, term_id in zip(ordered[edge].tolist(), ids[order[edge]].tolist()):
        out[g] = term(term_id)
    return out


def _table_sample(column, size, state, distinct=False):
    out = [_ERROR] * size  # SAMPLE over an empty group errors
    if column is not None:
        present, first = _np.unique(column.gids, return_index=True)
        term = state.term
        for g, term_id in zip(present.tolist(), column.ids[first].tolist()):
            out[g] = term(term_id)
    return out


#: func → (accumulator class, group-table fold, extra kwargs).  A fold,
#: called as ``fold(column, number of groups, state, **kwargs)``, gives
#: one finished value per group, or None to replay the rows through
#: ``add``; GROUP_CONCAT always replays.
_ACCUMULATORS = {
    "COUNT": (_Count, _table_count, {}),
    "SUM": (_Sum, _table_sum, {}),
    "AVG": (_Sum, _table_sum, {"average": True}),
    "MIN": (_MinMax, _table_min_max, {}),
    "MAX": (_MinMax, _table_min_max, {"is_max": True}),
    "SAMPLE": (_Sample, _table_sample, {}),
    "GROUP_CONCAT": (_GroupConcat, None, {}),
}


# --------------------------------------------------------------------------
# Output programs: projections / HAVING over the finished group columns
# --------------------------------------------------------------------------


def _collect_aggregates(
    expression: Expression, specs: list[Aggregate], index: dict
) -> bool:
    """Register the aggregates inside ``expression``; False if unsupported.

    Supported aggregate shapes: no argument (``COUNT(*)``) or a bare
    variable.  Anything else — computed arguments like ``SUM(?a * ?b)`` —
    declines the whole query to the term-space path.
    """
    if isinstance(expression, Aggregate):
        if expression.arg is not None and not (
            isinstance(expression.arg, TermExpr)
            and isinstance(expression.arg.term, Variable)
        ):
            return False
        if expression not in index:
            index[expression] = len(specs)
            specs.append(expression)
        return True
    if isinstance(expression, (Comparison, Arithmetic)):
        return _collect_aggregates(expression.left, specs, index) and \
            _collect_aggregates(expression.right, specs, index)
    if isinstance(expression, BoolOp):
        return all(_collect_aggregates(o, specs, index) for o in expression.operands)
    if isinstance(expression, NotExpr):
        return _collect_aggregates(expression.operand, specs, index)
    if isinstance(expression, FunctionCall):
        return all(_collect_aggregates(a, specs, index) for a in expression.args)
    if isinstance(expression, InExpr):
        return _collect_aggregates(expression.operand, specs, index) and all(
            _collect_aggregates(o, specs, index) for o in expression.options
        )
    return True


def _group_program(expression: Expression, index: dict,
                   group_vars: tuple[Variable, ...]):
    """A register program (:mod:`repro.sparql.rexpr`) over one group's row
    ``(key ids..., finished aggregate values...)``: group keys read like
    registers, aggregate nodes splice in a read of the finished value, so
    no AST is rebuilt and no binding dict is built per group."""
    slots = {variable: i for i, variable in enumerate(group_vars)}
    base = len(group_vars)

    def special(expr):
        if not isinstance(expr, Aggregate):
            return None
        position = base + index[expr]

        def read_aggregate(row, decode, position=position):
            value = row[position]
            if value is _ERROR:
                raise ExpressionError("aggregate evaluation errored")
            return value

        return read_aggregate

    return compile_expression(expression, slots, special=special)


def _projection(expression: Expression, index: dict,
                group_vars: tuple[Variable, ...]) -> tuple:
    """``("agg", aggregate index)`` or ``("key", key index)`` — the
    projection reads one finished column — else ``("general", program)``."""
    if isinstance(expression, Aggregate):
        return "agg", index[expression]
    if isinstance(expression, TermExpr) and isinstance(expression.term, Variable) \
            and expression.term in group_vars:
        return "key", group_vars.index(expression.term)
    return "general", _group_program(expression, index, group_vars)


def _holds(program, row, decode) -> bool:
    """A HAVING condition on one group; an error drops the group."""
    try:
        return effective_boolean_value(program(row, decode))
    except ExpressionError:
        return False


def _cell(program, row, decode):
    """A computed projection on one group; an error leaves it unbound."""
    try:
        return program(row, decode)
    except ExpressionError:
        return None


# --------------------------------------------------------------------------
# Plan compilation
# --------------------------------------------------------------------------


def compile_aggregate_ex(graph, query: SelectQuery, optimize: bool = True):
    """Lower a qualifying aggregate SELECT into an :class:`AggregatePlan`.

    Returns ``(plan, None)``, or ``(None, reason)`` when a qualifying rule
    (see the module docstring) fails: the caller falls back to the
    term-space path and tallies the reason.
    """
    if not isinstance(query, SelectQuery) or not query.is_aggregate_query:
        return None, "not-aggregate"
    if query.select_all:
        return None, "select-all"
    for variable in query.group_by:
        if not isinstance(variable, Variable):
            return None, "group-key-expression"

    specs: list[Aggregate] = []
    index: dict[Aggregate, int] = {}
    for projection in query.projections:
        if not _collect_aggregates(projection.expression, specs, index):
            return None, "aggregate-argument"
    for having in query.having:
        if not _collect_aggregates(having, specs, index):
            return None, "aggregate-argument"
    try:
        variables = [p.variable for p in query.projections]
    except ValueError:
        # Aliasing error: let the term-space path raise it.
        return None, "projection-alias"

    body, reason = compile_where(graph, query.where, optimize=optimize)
    if body is None:
        return None, reason

    group_vars = tuple(query.group_by)
    plan = AggregatePlan(
        body=body,
        group_vars=group_vars,
        specs=tuple(specs),
        projections=tuple(_projection(p.expression, index, group_vars)
                          for p in query.projections),
        having=tuple(_group_program(h, index, group_vars) for h in query.having),
        variables=variables,
    )
    return plan, None


def compile_aggregate(graph, query: SelectQuery, optimize: bool = True):
    """Plan-or-``None`` wrapper over :func:`compile_aggregate_ex`."""
    plan, _reason = compile_aggregate_ex(graph, query, optimize=optimize)
    return plan


class AggregatePlan:
    """An executable fused pipeline + group-by + aggregate plan.

    ``body`` is the compiled :class:`repro.sparql.operators.WherePlan` for
    the query's WHERE clause — FILTER placement, OPTIONAL/UNION/VALUES and
    property-path closure all live inside it; this class only groups its
    register rows.  Plans are immutable after construction and hold no
    per-execution state, so they are safe to cache and share across
    threads.
    """

    __slots__ = ("body", "group_vars", "key_slots", "specs", "builders",
                 "projections", "having", "variables")

    def __init__(self, body, group_vars, specs, projections, having, variables):
        self.body = body
        self.group_vars = group_vars
        # Group-key registers; None = variable never bound by the body, so
        # its key component is always None (SPARQL keeps such groups).
        self.key_slots = tuple(body.slots.get(v) for v in group_vars)
        self.specs = specs
        # (class, table fold, value slot or None, kwargs) per aggregate.  A
        # variable the body never binds behaves as always-unbound: every
        # row's argument errors and is skipped (slot None).
        self.builders = tuple(self._builder(spec, body) for spec in specs)
        self.projections = projections
        self.having = having
        self.variables = variables

    @staticmethod
    def _builder(spec: Aggregate, body):
        if spec.arg is None:
            return (_CountAll, None, None, {})
        cls, fold, extra = _ACCUMULATORS[spec.func]
        kwargs = dict(extra)
        if spec.distinct:
            kwargs["distinct"] = True
        return (cls, fold, body.slots.get(spec.arg.term), kwargs)

    def _new_group(self, state):
        """Fresh accumulators for one group, paired with their feeders:
        prebound ``(add_method, slot)`` pairs, so the accumulation loop
        costs one method call per aggregate per row."""
        accumulators = [cls(state, **kwargs)
                        for cls, _fold, _slot, kwargs in self.builders]
        feeders = [(acc.add, builder[2])
                   for acc, builder in zip(accumulators, self.builders)]
        return accumulators, feeders

    def execute(self, deadline, vec=None, stats=None
                ) -> tuple[list[tuple], list[Variable]]:
        """Run the fused pipeline; returns ``(rows, variables)``.

        With ``vec`` (a :class:`repro.sparql.vectorized.VecConfig`) the
        body executes batched and folds through the group table,
        otherwise tuple-at-a-time.  ``stats`` (an ``EndpointStats``)
        counts the groups formed and the rows folded into them.  The
        caller (``Evaluator.select``) applies DISTINCT, ORDER BY and
        OFFSET/LIMIT, identically for fused and term-space results.
        """
        # Decoding goes through the execution context's codec: it decodes
        # plan-local pseudo-ids (negative: VALUES/path constants the graph
        # never saw) and ids minted during the run (BIND, subquery cells).
        if vec is None:
            state, n, size, key_cols, agg_cols = self._stream(deadline)
        else:
            state, n, size, key_cols, agg_cols = self._table(deadline, vec)
        if stats is not None:
            stats.add("aggregate_rows", n)
            stats.add("groups_formed", size)
        return self._rows(key_cols, agg_cols, size, state, deadline), \
            list(self.variables)

    def _stream(self, deadline):
        """Tuple-at-a-time fold into a dict of per-group accumulators.
        Returns ``(state, rows folded, number of groups, key columns,
        aggregate columns)``: per group variable the key ids (None when
        unbound), per aggregate the finished values, in group order."""
        ctx = _ExecContext(self.body, deadline)
        state = _ExecState(ctx.decode, self.body.dictionary.numeric)
        rows_iter, _ctx = self.body.rows_stream(deadline, ctx)
        groups: dict[tuple, tuple[list, list]] = {}
        check = deadline.check
        key_slots = self.key_slots
        get_group = groups.get
        n = 0
        for n, row in enumerate(rows_iter, 1):
            check()
            key = tuple(
                None if slot is None else row[slot] for slot in key_slots
            )
            entry = get_group(key)
            if entry is None:
                entry = self._new_group(state)
                groups[key] = entry
            for add, slot in entry[1]:
                add(None if slot is None else row[slot])
        if not groups and not self.group_vars:
            # SPARQL: with no GROUP BY there is exactly one group, even
            # over zero solutions (COUNT(*) = 0, SUM = 0, MIN errors, ...).
            groups[()] = self._new_group(state)
        key_cols = [[key[i] for key in groups]
                    for i in range(len(self.group_vars))]
        accumulators = [entry[0] for entry in groups.values()]
        agg_cols = [[accs[j].finish(state) for accs in accumulators]
                    for j in range(len(self.builders))]
        return state, n, len(groups), key_cols, agg_cols

    def _table(self, deadline, vec):
        """The group table: every batch folded at once, one array per
        aggregate over dense group ids.  Returns what :meth:`_stream`
        returns — same groups, same order, same values — with the decode
        state over the batch run's own context, so minted ids decode."""
        vctx = _VecCtx(self.body, deadline, vec)
        state = _ExecState(vctx.tctx.decode, self.body.dictionary.numeric)
        batches = collect_batches(self.body, deadline, vec, vctx)
        deadline.check()
        n = sum(batch.n for batch in batches)
        concatenated: dict = {None: None}

        def column(slot):
            """The slot's ids over every batch, or None if never bound."""
            if slot not in concatenated:
                parts = [batch.cols[slot] for batch in batches]
                concatenated[slot] = None if all(p is None for p in parts) \
                    else _np.concatenate([
                        _np.full(b.n, UNBOUND, dtype=_np.int64) if p is None
                        else p for b, p in zip(batches, parts)])
            return concatenated[slot]

        keys = [column(slot) for slot in self.key_slots]
        gids, firsts = _group_ids([col for col in keys if col is not None],
                                  n, bool(self.group_vars))
        size = len(firsts)
        key_cols = [[None] * size if col is None else
                    [None if v == UNBOUND else v for v in col[firsts].tolist()]
                    for col in keys]
        args: dict = {None: None}
        agg_cols, replays = [], []
        for cls, fold, slot, kwargs in self.builders:
            col = column(slot)
            if slot not in args:
                args[slot] = None if col is None else _Column(gids, col)
            if cls is _CountAll:
                counts = _np.bincount(gids, minlength=size).tolist()
                values = state.literals(counts, count=True)
            else:
                values = None if fold is None else \
                    fold(args[slot], size, state, **kwargs)
            if values is None:
                ids = [None] * n if col is None else \
                    [None if v == UNBOUND else v for v in col.tolist()]
                accs = [cls(state, **kwargs) for _ in range(size)]
                replays.append((len(agg_cols), accs, ids))
            agg_cols.append(values)
        if replays:
            # GROUP_CONCAT and malformed numbers: the declined aggregates
            # fold row by row through ``add``, interleaved per row as in
            # the tuple engine, so order-dependent values and errors match.
            check = deadline.check
            for row, g in enumerate(gids.tolist()):
                check()
                for _j, accs, ids in replays:
                    accs[g].add(ids[row])
            for j, accs, _ids in replays:
                agg_cols[j] = [acc.finish(state) for acc in accs]
        return state, n, size, key_cols, agg_cols

    def _rows(self, key_cols, agg_cols, size, state, deadline) -> list[tuple]:
        """Result rows from the finished group columns.  HAVING and
        computed projections run per group over its ``(key ids...,
        aggregate values...)`` row; a key or aggregate projection reads
        its column."""
        decode = state.term
        rows = None
        if self.having or any(kind == "general" for kind, _ in self.projections):
            rows = list(zip(*key_cols, *agg_cols)) if key_cols or agg_cols \
                else [()] * size
        if self.having:
            check = deadline.check
            kept = []
            for g, row in enumerate(rows):
                check()
                if all(_holds(program, row, decode) for program in self.having):
                    kept.append(g)
            if len(kept) < size:
                key_cols = [[col[g] for g in kept] for col in key_cols]
                agg_cols = [[col[g] for g in kept] for col in agg_cols]
                rows = [rows[g] for g in kept]
                size = len(kept)
        out = []
        for kind, what in self.projections:
            if kind == "agg":
                out.append([None if v is _ERROR else v for v in agg_cols[what]])
            elif kind == "key":
                out.append([None if i is None else decode(i)
                            for i in key_cols[what]])
            else:
                out.append([_cell(what, row, decode) for row in rows])
        return list(zip(*out)) if out else [()] * size

    def __repr__(self) -> str:
        return (
            f"<AggregatePlan {self.body.num_slots} registers, "
            f"{len(self.group_vars)} keys, {len(self.specs)} aggregates>"
        )
