"""Fused id-space GROUP BY / aggregation over the unified operator pipeline.

Every query the paper's workloads actually run — REOLAP candidates,
refinement probes, the figure benchmarks — is an aggregate ``SELECT …
GROUP BY`` over observations.  The physical-operator layer
(:mod:`repro.sparql.operators`) streams id-space register rows for *any*
supported WHERE body — plain BGPs, OPTIONAL drill-downs, UNION'd
interpretation candidates, VALUES-bound member lists, property-path
closures — and this module folds those rows into groups without ever
materializing a solution list:

* **hash-group on register tuples** — the group key is a tuple of integer
  ids read straight out of the pipeline's register file (``None`` for
  unbound keys); the dictionary is bijective, so id-tuple grouping equals
  term-tuple grouping with none of the decoding;
* **streaming accumulators** — COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT
  fold each row into small per-group state as the pipeline produces it
  (DISTINCT variants keep a per-group id-set), so no solution list is
  ever materialized;
* **grouped batch fold** — batched execution folds each batch in one
  pass: dense group ids per row, then one ``fold`` per aggregate over
  all the batch's groups (``bincount`` counts, in-order ``np.add.at``
  sums, rank-and-position MIN/MAX), bit-identical to the row-by-row
  fold;
* **memoized decode** — SUM/AVG read each literal id's number from the
  term dictionary's memo, filled once per id for the dictionary's
  lifetime (MIN/MAX memoize sort keys, GROUP_CONCAT lexical forms, per
  execution); group keys are decoded once per group, at the projection
  boundary.

:func:`compile_aggregate_ex` lowers a qualifying query into an
:class:`AggregatePlan` — operator pipeline → fused aggregation → HAVING —
and returns ``(None, reason)`` for everything else, which keeps the
term-space ``_aggregate`` path as the semantics-preserving fallback.  A
query qualifies when:

* its WHERE clause compiles under :func:`repro.sparql.operators
  .compile_where` — which now takes BIND, FILTER [NOT] EXISTS, MINUS
  and subqueries, so bodies holding them fuse too; the remaining
  declines (with their reason strings) are exotic path shapes and
  graphs without an id backend;
* GROUP BY keys are plain variables (unbound keys are fine: they group
  under a ``None`` component, exactly like the term-space path);
* every aggregate in the projections and HAVING clauses takes either no
  argument (``COUNT(*)``) or a bare variable — the shapes REOLAP and the
  refinement operators generate.

Error semantics mirror the term-space evaluator exactly: rows whose
aggregate argument is unbound are skipped (which also covers OPTIONAL- and
UNION-introduced unbound registers), a non-numeric value makes SUM/AVG
error (projection → ``None``, HAVING → group dropped), GROUP_CONCAT errors
on blank nodes, and empty groups error for MIN/MAX/SAMPLE.

Plans depend on the graph's id assignment, so the serving cache's
``plans`` tier stores them under the same ``(query, graph uid, epoch)``
identity discipline as compiled WHERE plans.
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
    """Sentinel carried by an accumulator whose aggregate errored.

    Stored instead of a term so one errored aggregate does not abort the
    whole group: projections render it as ``None``, HAVING drops the
    group — SPARQL's expression-error semantics.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<aggregate error>"


_ERROR = _AggError()


# --------------------------------------------------------------------------
# Streaming accumulators
#
# Each accumulator consumes the integer id bound to its argument variable
# (None when unbound — the row is skipped, matching the term-space engine's
# skip-on-argument-error rule) and produces an RDF term, or the _ERROR
# sentinel, at group finalization.  ``add`` folds one row (the tuple
# path); the classmethod ``fold`` folds a whole batch into the
# accumulators of its groups at once (the batched path), bit-identical to
# calling ``add`` on every row in order.  Numbers come from the term
# dictionary's memo, other decodes from the execution-wide memos owned by
# _ExecState.
# --------------------------------------------------------------------------


class _ExecState:
    """Per-execution decode memos shared by every group's accumulators.

    Numeric values are not memoized here: ``numeric`` reads the term
    dictionary's own memo, which outlives the execution.
    """

    __slots__ = ("decode", "_numeric", "terms", "strings", "sort_keys")

    def __init__(self, decode, numeric):
        self.decode = decode  # the execution context's codec
        self._numeric = numeric  # the term dictionary's NumericMemo.numeric
        self.terms: dict[int, Node] = {}
        self.strings: dict[int, object] = {}
        self.sort_keys: dict[int, tuple] = {}

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


class _Column:
    """One aggregate argument column of a batch, restricted to its bound
    rows, with the per-column work — distinct ids, their numbers, their
    sort-key ranks — done once for every aggregate that reads it."""

    __slots__ = ("gids", "ids", "_distinct", "_numerics", "_ranks")

    def __init__(self, gids, col):
        bound = col != UNBOUND
        if bool(bound.all()):
            self.gids, self.ids = gids, col
        else:
            self.gids, self.ids = gids[bound], col[bound]
        self._distinct = self._numerics = self._ranks = None

    def distinct(self):
        """``(distinct ids as a list, inverse index per row)``."""
        if self._distinct is None:
            uniq, inverse = _np.unique(self.ids, return_inverse=True)
            self._distinct = (uniq.tolist(), inverse)
        return self._distinct

    def _numeric(self, state) -> list:
        if self._numerics is None:
            self._numerics = [state.numeric(t) for t in self.distinct()[0]]
        return self._numerics

    def numbers(self, state):
        """Float64 value per distinct id, or None when some id is not a
        well-formed number (its errors then need the row order)."""
        values = self._numeric(state)
        if any(v is NOT_NUMERIC or v is MALFORMED for v in values):
            return None
        return _np.array(values, dtype=_np.float64)

    def ranks(self, state):
        """``(dense sort-key rank per row, sort key per distinct id or
        None)``, or None when a NaN literal makes the order partial.

        When every id is a well-formed number with a distinct value, the
        sort-key order is the numeric order: no term is decoded and the
        keys stay None (an accumulator computes the few it compares).
        """
        if self._ranks is None:
            uniq, inverse = self.distinct()
            numbers = self._numeric(state)
            if any(v is MALFORMED for v in numbers):
                self._ranks = False
                return None
            rank = keys = None
            if not any(v is NOT_NUMERIC for v in numbers):
                values = _np.array(numbers, dtype=_np.float64)
                order = _np.argsort(values, kind="stable")
                ordered = values[order]
                if not bool((ordered[1:] == ordered[:-1]).any()):
                    rank = _np.empty(len(order), dtype=_np.int64)
                    rank[order] = _np.arange(len(order))
            if rank is None:  # equal numbers or other terms: full sort keys
                keys = [state.sort_key(t) for t in uniq]
                rank = _np.empty(len(keys), dtype=_np.int64)
                previous, current = None, -1
                for j in sorted(range(len(keys)), key=keys.__getitem__):
                    if current < 0 or keys[j] != previous:
                        current += 1
                        previous = keys[j]
                    rank[j] = current
            self._ranks = (rank[inverse], keys)
        return self._ranks if self._ranks is not False else None

    def replay(self, accs) -> None:
        """Fold the rows one at a time, in row order: the exact path."""
        for gid, term_id in zip(self.gids.tolist(), self.ids.tolist()):
            accs[gid].add(term_id)


class _CountAll:
    """COUNT(*) — counts group members; DISTINCT is a no-op, exactly as in
    the term-space path (COUNT(*) never sees per-row values to dedup)."""

    __slots__ = ("n",)

    def __init__(self, state, distinct=False):
        self.n = 0

    def add(self, value_id) -> None:
        self.n += 1

    @classmethod
    def fold(cls, accs, gids, column, state) -> None:
        counts = _np.bincount(gids, minlength=len(accs))
        for acc, n in zip(accs, counts.tolist()):
            acc.n += n

    def finish(self, state):
        return Literal(str(self.n), datatype=XSD_INTEGER)


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

    @classmethod
    def fold(cls, accs, gids, column, state) -> None:
        if column is None:
            return
        if accs[0].seen is not None:
            column.replay(accs)
            return
        counts = _np.bincount(column.gids, minlength=len(accs))
        for acc, n in zip(accs, counts.tolist()):
            acc.n += n

    def finish(self, state):
        n = len(self.seen) if self.seen is not None else self.n
        return Literal(str(n), datatype=XSD_INTEGER)


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

    @classmethod
    def fold(cls, accs, gids, column, state) -> None:
        """Per-group sums of a whole batch, added in row order:
        ``np.add.at`` is an unbuffered, in-order fold, so each group
        performs exactly the float additions ``add`` would, at any
        magnitude.  A non-numeric or malformed id replays the rows
        through ``add``, whose error semantics depend on the order, and
        so does DISTINCT (its first-occurrence dict)."""
        if column is None:
            return
        values = None if accs[0].seen is not None else column.numbers(state)
        if values is None:
            column.replay(accs)
            return
        totals = _np.array([acc.total for acc in accs], dtype=_np.float64)
        _np.add.at(totals, column.gids, values[column.distinct()[1]])
        counts = _np.bincount(column.gids, minlength=len(accs))
        for acc, total, n in zip(accs, totals.tolist(), counts.tolist()):
            if n and not acc.errored:
                acc.total = total
                acc.n += n

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
                return Literal("0", datatype=XSD_INTEGER)
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
        self._offer(value_id, None)

    def _offer(self, value_id, key) -> None:
        """Keep ``value_id`` under the tie rules.  ``key`` is its sort key
        or None; keys are computed only when a comparison needs them."""
        if self.best is None:
            self.best, self.best_key = value_id, key
            return
        sort_key = self.state.sort_key
        if key is None:
            key = sort_key(value_id)
        if self.best_key is None:
            self.best_key = sort_key(self.best)
        if (key >= self.best_key) if self.is_max else (key < self.best_key):
            self.best, self.best_key = value_id, key

    @classmethod
    def fold(cls, accs, gids, column, state) -> None:
        """Each group's batch winner by (sort-key rank, row position) —
        the earliest minimal row, the latest maximal one — offered to its
        accumulator under the sequential tie rules.  DISTINCT ties depend
        on global first occurrences, and a NaN literal leaves the order
        partial, so those replay rows instead."""
        if column is None:
            return
        ranked = None if accs[0].seen is not None else column.ranks(state)
        if ranked is None:
            column.replay(accs)
            return
        rank, keys = ranked
        # lexsort is stable: within a (group, rank) run rows keep their order.
        order = _np.lexsort((rank, column.gids))
        ordered = column.gids[order]
        change = ordered[1:] != ordered[:-1]
        if accs[0].is_max:  # each group's last row: max rank, latest
            edge = _np.flatnonzero(_np.append(change, True))
        else:  # each group's first row: min rank, earliest
            edge = _np.flatnonzero(_np.insert(change, 0, True))
        rows = order[edge]
        inverse = column.distinct()[1]
        for gid, term_id, j in zip(ordered[edge].tolist(),
                                   column.ids[rows].tolist(),
                                   inverse[rows].tolist()):
            accs[gid]._offer(term_id, None if keys is None else keys[j])

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

    @classmethod
    def fold(cls, accs, gids, column, state) -> None:
        if column is None:
            return
        present, first = _np.unique(column.gids, return_index=True)
        for gid, term_id in zip(present.tolist(), column.ids[first].tolist()):
            accs[gid].add(term_id)

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

    @classmethod
    def fold(cls, accs, gids, column, state) -> None:
        if column is not None:
            column.replay(accs)

    def finish(self, state):
        if self.errored:
            return _ERROR
        return Literal(" ".join(self.parts))


#: func → (accumulator class, extra kwargs)
_ACCUMULATORS = {
    "COUNT": (_Count, {}),
    "SUM": (_Sum, {}),
    "AVG": (_Sum, {"average": True}),
    "MIN": (_MinMax, {}),
    "MAX": (_MinMax, {"is_max": True}),
    "SAMPLE": (_Sample, {}),
    "GROUP_CONCAT": (_GroupConcat, {}),
}


# --------------------------------------------------------------------------
# Output programs: projections / HAVING over finished accumulators
# --------------------------------------------------------------------------


class _Program:
    """One projection or HAVING expression, pre-analyzed at compile time.

    ``kind`` picks the per-group fast path: ``"agg"`` reads one finished
    aggregate, ``"key"`` reads one group-key id and decodes it through
    the execution memo, ``"general"`` runs a register-level expression
    program (:mod:`repro.sparql.rexpr`) over a synthetic row of
    ``key ids + finished aggregate values`` — aggregate reads are
    spliced in through the compiler's ``special`` hook, so no AST is
    rebuilt per group and no key-binding dict is ever constructed.
    """

    __slots__ = ("kind", "index", "variable", "expression", "program")

    def __init__(self, kind, index=None, variable=None, expression=None,
                 program=None):
        self.kind = kind
        self.index = index
        self.variable = variable
        self.expression = expression
        self.program = program

    def run(self, agg_values: list, key: tuple, state: "_ExecState") -> Node:
        if self.kind == "agg":
            value = agg_values[self.index]
            if value is _ERROR:
                raise ExpressionError("aggregate evaluation errored")
            return value
        if self.kind == "key":
            term_id = key[self.index]
            if term_id is None:
                raise ExpressionError(f"unbound variable {self.variable.n3()}")
            return state.term(term_id)
        return self.program(list(key) + agg_values, state.term)


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


def _program_for(expression: Expression, index: dict,
                 group_vars: tuple[Variable, ...]) -> _Program:
    if isinstance(expression, Aggregate):
        return _Program("agg", index=index[expression])
    if isinstance(expression, TermExpr) and isinstance(expression.term, Variable) \
            and expression.term in group_vars:
        return _Program("key", index=group_vars.index(expression.term),
                        variable=expression.term)
    # General expression: compile against a synthetic row laid out as
    # [key ids..., finished aggregate values...].  Group keys read like
    # registers (ids decoded through the execution memo); aggregate
    # nodes splice in closures reading the already-finished value.
    slots = {variable: i for i, variable in enumerate(group_vars)}
    base = len(group_vars)

    def special(expr, base=base, agg_index=index):
        if not isinstance(expr, Aggregate):
            return None
        position = base + agg_index[expr]

        def read_aggregate(row, decode, position=position):
            value = row[position]
            if value is _ERROR:
                raise ExpressionError("aggregate evaluation errored")
            return value

        return read_aggregate

    program = compile_expression(expression, slots, special=special)
    return _Program("general", expression=expression, program=program)


# --------------------------------------------------------------------------
# Plan compilation
# --------------------------------------------------------------------------


def compile_aggregate_ex(graph, query: SelectQuery, optimize: bool = True):
    """Lower a qualifying aggregate SELECT into an :class:`AggregatePlan`.

    Returns ``(plan, None)`` on success and ``(None, reason)`` whenever
    any qualifying rule (see the module docstring) fails; callers fall
    back to the term-space aggregation path, which handles the full
    language, and can feed the reason string into the endpoint's
    per-decline tally.
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

    projection_programs = tuple(
        _program_for(p.expression, index, query.group_by) for p in query.projections
    )
    having_programs = tuple(
        _program_for(h, index, query.group_by) for h in query.having
    )
    plan = AggregatePlan(
        body=body,
        group_vars=tuple(query.group_by),
        specs=tuple(specs),
        projection_programs=projection_programs,
        having_programs=having_programs,
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
    property-path closure all live inside it; this class only folds its
    register rows.  Plans are immutable after construction and hold no
    per-execution state, so they are safe to cache and share across
    threads; each :meth:`execute` builds its own accumulators and decode
    memos.
    """

    __slots__ = (
        "body", "group_vars", "key_slots", "specs", "builders",
        "projection_programs", "having_programs", "variables",
    )

    def __init__(self, body, group_vars, specs,
                 projection_programs, having_programs, variables):
        self.body = body
        self.group_vars = group_vars
        # Group-key registers; None = variable never bound by the body, so
        # its key component is always None (SPARQL keeps such groups).
        self.key_slots = tuple(body.slots.get(v) for v in group_vars)
        self.specs = specs
        # (class, value slot or None, kwargs) per accumulator.  A variable
        # the body never binds behaves as always-unbound: every row's
        # argument errors and is skipped (slot None).
        self.builders = tuple(self._builder(spec, body) for spec in specs)
        self.projection_programs = projection_programs
        self.having_programs = having_programs
        self.variables = variables

    @staticmethod
    def _builder(spec: Aggregate, body):
        if spec.arg is None:
            return (_CountAll, None, {})
        cls, extra = _ACCUMULATORS[spec.func]
        kwargs = dict(extra)
        if spec.distinct:
            kwargs["distinct"] = True
        return (cls, body.slots.get(spec.arg.term), kwargs)

    def _new_group(self, state, rowwise: bool = True):
        """Fresh accumulators for one group, paired with their feeders.

        Returns ``(accumulators, feeders)`` where feeders are prebound
        ``(add_method, slot)`` pairs — the accumulation loop then costs one
        method call per aggregate per row with no per-row introspection.
        The batched fold needs no feeders (``rowwise=False``).
        """
        accumulators = [
            cls(state, **kwargs) for cls, _slot, kwargs in self.builders
        ]
        if not rowwise:
            return accumulators, ()
        feeders = [
            (acc.add, slot)
            for acc, (_cls, slot, _kwargs) in zip(accumulators, self.builders)
        ]
        return accumulators, feeders

    def execute(self, deadline, vec=None) -> tuple[list[tuple], list[Variable]]:
        """Run the fused pipeline; returns ``(rows, variables)``.

        With ``vec`` (a :class:`repro.sparql.vectorized.VecConfig`) the
        body executes batched and each batch folds through the
        accumulators' grouped ``fold``; otherwise rows stream
        tuple-at-a-time.  The
        caller (``Evaluator.select``) applies DISTINCT, ORDER BY with
        the bounded top-k heap, and OFFSET/LIMIT — identically for fused
        and term-space results.
        """
        # Decoding goes through the execution context's codec: it
        # intercepts plan-local pseudo-ids (negative) before they can
        # reach the dictionary — so VALUES/path constants never seen by
        # the graph still decode correctly — and additionally covers ids
        # minted *during* the run (BIND results, subquery cells).
        groups: dict[tuple, tuple[list, list]] = {}
        check = deadline.check

        if vec is not None:
            state = self._fold_batched(deadline, vec, groups)
        else:
            ctx = _ExecContext(self.body, deadline)
            state = _ExecState(ctx.decode, self.body.dictionary.numeric)
            rows_iter, _ctx = self.body.rows_stream(deadline, ctx)
            key_slots = self.key_slots
            get_group = groups.get
            for row in rows_iter:
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

        out_rows: list[tuple] = []
        for key, (accumulators, _feeders) in groups.items():
            check()
            agg_values = [acc.finish(state) for acc in accumulators]
            keep = True
            for program in self.having_programs:
                try:
                    value = program.run(agg_values, key, state)
                    if not effective_boolean_value(value):
                        keep = False
                        break
                except ExpressionError:
                    keep = False
                    break
            if not keep:
                continue
            row_out = []
            for program in self.projection_programs:
                try:
                    row_out.append(program.run(agg_values, key, state))
                except ExpressionError:
                    row_out.append(None)
            out_rows.append(tuple(row_out))
        return out_rows, list(self.variables)

    def _fold_batched(self, deadline, vec, groups) -> "_ExecState":
        """Consume batched body execution, one grouped fold per batch.

        Each batch's rows get dense group ids (:meth:`_batch_groups`),
        then every accumulator class folds the whole batch into the
        accumulators of those groups (``fold``).  Builds (and returns)
        the decode state over the batch run's own execution context, so
        ids minted during the run decode.
        """
        vctx = _VecCtx(self.body, deadline, vec)
        state = _ExecState(vctx.tctx.decode, self.body.dictionary.numeric)
        check = deadline.check
        for batch in collect_batches(self.body, deadline, vec, vctx):
            check()
            gids, entries = self._batch_groups(batch, state, groups)
            columns: dict[int | None, _Column | None] = {}
            for j, (cls, slot, _kwargs) in enumerate(self.builders):
                if slot not in columns:
                    col = None if slot is None else batch.cols[slot]
                    columns[slot] = None if col is None else _Column(gids, col)
                cls.fold([entry[0][j] for entry in entries], gids,
                         columns[slot], state)
        return state

    def _batch_groups(self, batch, state, groups):
        """Dense per-row group ids for one batch, plus each id's entry.

        Ids follow first occurrence in the batch, so new groups enter
        ``groups`` in the order the streaming dict would create them.
        Multi-key grouping refines one ``np.unique`` inverse per key
        column; only the batch's distinct keys touch the dict.
        """
        cols = [None if slot is None else batch.cols[slot]
                for slot in self.key_slots]
        varying = [col for col in cols if col is not None]
        if not varying:
            gids = _np.zeros(batch.n, dtype=_np.int64)
            firsts = _np.zeros(1, dtype=_np.int64)
        else:
            code = varying[0]
            for col in varying[1:]:
                _uniq, code = _np.unique(code, return_inverse=True)
                uniq, inverse = _np.unique(col, return_inverse=True)
                code = code * len(uniq) + inverse
            _uniq, first, inverse = _np.unique(
                code, return_index=True, return_inverse=True)
            order = _np.argsort(first, kind="stable")
            renumber = _np.empty_like(order)
            renumber[order] = _np.arange(len(order))
            gids = renumber[inverse]
            firsts = first[order]
        key_cells = [
            None if col is None else
            [None if v == UNBOUND else v for v in col[firsts].tolist()]
            for col in cols
        ]
        entries = []
        for g in range(len(firsts)):
            key = tuple(None if cells is None else cells[g] for cells in key_cells)
            entry = groups.get(key)
            if entry is None:
                entry = self._new_group(state, rowwise=False)
                groups[key] = entry
            entries.append(entry)
        return gids, entries

    def __repr__(self) -> str:
        return (
            f"<AggregatePlan {self.body.num_slots} registers, "
            f"{len(self.group_vars)} keys, {len(self.specs)} aggregates>"
        )
