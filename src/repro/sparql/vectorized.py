"""Batch-vectorized execution of compiled WHERE pipelines.

The operator layer (:mod:`repro.sparql.operators`) is tuple-at-a-time:
every row hops through a chain of Python generators, paying interpreter
overhead per register file.  This module executes the *same* compiled
:class:`~repro.sparql.operators.WherePlan` block-at-a-time: rows travel
as :class:`Batch` objects — one int64 column per register, sliced
directly out of the columnar sorted runs — and each operator transforms
a whole batch in a handful of numpy array operations.

Execution model:

* **Batch format** — ``cols[slot]`` is ``None`` (the register is unbound
  in every row), or an int64 array where the sentinel :data:`UNBOUND`
  (``-2**62``) marks per-row unbound registers.  Plan-local pseudo ids
  are small negatives (``-1 - k``), so the sentinel can never collide
  with a real or pseudo id.
* **Selection vectors** — filtering operators compute a boolean mask or
  an index vector and gather surviving rows once; expanding operators
  (probes) build a parent-index vector with ``repeat``/``cumsum`` and
  gather every column through it, which keeps the *exact* row order the
  tuple engine produces (row-outer, match-inner).  Order preservation is
  load-bearing: ``LIMIT`` without ``ORDER BY`` slices positionally.
* **Expression kernels** — FILTER and BIND evaluate their register
  programs once per *distinct* id through a decode-once table (numeric
  comparisons read floats from the term dictionary's memo); EXISTS/NOT
  EXISTS collapse the inner pipeline's source map to a per-row flag; MINUS folds the
  memoized right side into a removal mask; subqueries join their
  encoded result rows with the VALUES compatibility loop.
* **Fast paths and fallback** — vectorized probes slice every sorted
  run of a permutation (:meth:`TripleIndex.levels`: the main run, then
  level 0, the small run writes land in) through cached composite keys
  (:meth:`Run.pair_ranges`) or first-key ranges (a variable predicate),
  drop the main run's dead rows with one ``searchsorted`` mask, and
  stable-merge the two runs' matches by input row — per input row, main
  matches then level-0 matches, the order of the tuple engine's scans.
  A mixed-boundness column, a predicate bound per row, a multi-column
  filter program or an oversized fan-out falls back to the tuple engine
  *per batch* (rows are round-tripped through the operator's own
  ``run``, and counted as ``fallback_batch_rows``), so every shape the
  tuple engine supports runs batched with identical semantics.
  Property paths run their id-space closure once per distinct input
  pair.
* **Driving scan** — when the first scheduled operator is an
  ``IndexScan`` of a run range, the range of each run is sliced into
  batch-size batches, zero-copy, in run order; otherwise execution
  starts from a single seed row.
* **Deadline** — checked per operator per batch with a direct
  ``time.monotonic`` comparison (no stride: one check covers thousands
  of rows), plus the tuple engine's own per-row checks inside fallbacks.

The tuple-at-a-time path stays fully intact as the differential oracle;
:mod:`tests.test_vectorized_parity` pins batched ≡ tuple ≡ term-space.
"""

from __future__ import annotations

import time

import numpy as _np

from ..errors import QueryTimeoutError
from ..rdf.terms import BNode, Literal, Variable
from ..store.index import MALFORMED, NOT_NUMERIC, in_sorted, numeric_of
from .ast import BoolOp, Comparison, FunctionCall, NotExpr, TermExpr
from .expressions import ExpressionError, effective_boolean_value
from .operators import (
    _BindRebind,
    _ExecContext,
    _rebind_error,
    BindOp,
    ExistsJoin,
    FilterOp,
    IndexScan,
    LeftJoin,
    MinusJoin,
    PathClosure,
    SubqueryScan,
    UnionOp,
    ValuesBind,
    _StepOp,
    _path_pairs,
)

__all__ = [
    "UNBOUND",
    "DEFAULT_BATCH_SIZE",
    "VecConfig",
    "analyze_plan",
    "collect_batches",
    "vec_solutions",
    "vec_rows",
]

#: Per-row "this register is unbound" sentinel inside an int64 column.
#: Far below every real id (>= 0) and every plan-local pseudo id (small
#: negatives), so it can never collide.
UNBOUND = -(1 << 62)

DEFAULT_BATCH_SIZE = 65536

#: Values beyond 2**53 lose exactness in float64; the vectorized numeric
#: filter refuses them and falls back to the exact per-row comparison.
_FLOAT_EXACT_LIMIT = float(1 << 53)

#: Cap on rows a single vectorized expansion may materialize in one
#: repeat/tile allocation (128 MiB of int64 per column).  Wider fan-outs
#: run through the tuple operator instead, which honours the per-row
#: deadline while it grinds rather than attempting one unbounded
#: allocation.
_MAX_EXPANSION = 1 << 24


class _ExpansionLimit(Exception):
    """A probe fan-out exceeds :data:`_MAX_EXPANSION`; use the fallback."""


class VecConfig:
    """Normalized batched-execution settings.

    ``stats`` is an optional :class:`~repro.store.endpoint.EndpointStats`
    sink for ``fallback_batch_rows``.
    """

    __slots__ = ("batch_size", "stats")

    def __init__(self, batch_size: int | None = None, stats=None):
        self.stats = stats
        self.batch_size = int(batch_size) if batch_size else DEFAULT_BATCH_SIZE
        if self.batch_size < 1:
            self.batch_size = 1


_DEFAULT_CONFIG = VecConfig()


class Batch:
    """One block of register-file rows, stored column-wise."""

    __slots__ = ("cols", "n", "_states")

    def __init__(self, cols: list, n: int):
        self.cols = cols
        self.n = n
        self._states: dict[int, str] = {}

    @property
    def width(self) -> int:
        return len(self.cols)

    def state(self, slot: int) -> str:
        """Boundness of one column: ``'none'`` | ``'all'`` | ``'mixed'``."""
        col = self.cols[slot]
        if col is None:
            return "none"
        cached = self._states.get(slot)
        if cached is None:
            cached = "mixed" if bool((col == UNBOUND).any()) else "all"
            self._states[slot] = cached
        return cached


def _empty(width: int) -> Batch:
    return Batch([None] * width, 0)


class _VecCtx:
    """Per-execution batched state, wrapping the tuple engine's context.

    The tuple :class:`_ExecContext` is shared with every per-batch
    fallback, so its memos persist across the batches of one execution.
    """

    __slots__ = ("plan", "deadline", "config", "tctx", "index")

    def __init__(self, plan, deadline, config: VecConfig):
        self.plan = plan
        self.deadline = deadline
        self.config = config
        self.tctx = _ExecContext(plan, deadline)
        self.index = plan.index

    def check(self) -> None:
        """Direct per-batch deadline check — no stride, one call covers
        thousands of rows."""
        expires_at = self.deadline.expires_at
        if expires_at is not None and time.monotonic() > expires_at:
            raise QueryTimeoutError("query evaluation exceeded the deadline")


# --------------------------------------------------------------------------
# Row <-> batch conversion (the per-batch tuple-engine fallback)
# --------------------------------------------------------------------------


def _to_tagged_rows(batch: Batch) -> list[list]:
    """Batch rows as tuple-engine register files with a trailing parent
    index (tuple operators copy rows wholesale, so the tag survives)."""
    width = batch.width
    n = batch.n
    lists = [None if col is None else col.tolist() for col in batch.cols]
    rows = []
    for i in range(n):
        row = [None] * (width + 1)
        row[width] = i
        for slot, vals in enumerate(lists):
            if vals is not None:
                value = vals[i]
                if value != UNBOUND:
                    row[slot] = value
        rows.append(row)
    return rows


def _from_rows(rows: list[list], width: int) -> Batch:
    cols: list = []
    for slot in range(width):
        seen = False
        vals = []
        for row in rows:
            value = row[slot]
            if value is None:
                vals.append(UNBOUND)
            else:
                vals.append(value)
                seen = True
        cols.append(_np.array(vals, dtype=_np.int64) if seen else None)
    return Batch(cols, len(rows))


def _per_row(op, batch: Batch, vctx: _VecCtx):
    """Run one tuple operator over a batch's rows (the universal
    fallback): identical semantics by construction, still batch-framed.
    The rows are counted as ``fallback_batch_rows``."""
    stats = vctx.config.stats
    if stats is not None:
        stats.add("fallback_batch_rows", batch.n)
    width = batch.width
    rows = _to_tagged_rows(batch)
    out_rows = list(op.run(iter(rows), vctx.tctx))
    out = _from_rows(out_rows, width)
    src = _np.array([row[width] for row in out_rows], dtype=_np.int64)
    return out, src


# --------------------------------------------------------------------------
# Batch primitives
# --------------------------------------------------------------------------


def _take(batch: Batch, idx) -> Batch:
    cols = [None if col is None else col[idx] for col in batch.cols]
    return Batch(cols, int(len(idx)))


def _expand(batch: Batch, parent, bound: dict) -> Batch:
    """Gather every column through a parent-index vector, overriding the
    slots in ``bound`` with freshly produced columns."""
    cols = []
    for slot, col in enumerate(batch.cols):
        new = bound.get(slot)
        if new is not None:
            cols.append(new)
        elif col is None:
            cols.append(None)
        else:
            cols.append(col[parent])
    return Batch(cols, int(len(parent)))


def _apply_eqs(batch: Batch, parent, eqs):
    """Register-equality selection (repeated variables) on a step output."""
    if not eqs or batch.n == 0:
        return batch, parent
    mask = None
    for a, b in eqs:
        part = batch.cols[a] == batch.cols[b]
        mask = part if mask is None else (mask & part)
    idx = _np.nonzero(mask)[0]
    return _take(batch, idx), parent[idx]


def _merge_parts(parts: list, width: int):
    """Concatenate part batches and stable-sort by their source keys.

    ``parts`` is ``[(batch, src)]`` in tie-break order: rows with equal
    source keys keep part order, then within-part order — exactly the
    tuple engine's per-row branch/values/left-join interleaving.
    """
    parts = [(b, s) for b, s in parts if b.n]
    if not parts:
        return _empty(width), _np.empty(0, _np.int64)
    if len(parts) == 1:
        return parts[0]
    src_all = _np.concatenate([s for _b, s in parts])
    order = _np.argsort(src_all, kind="stable")
    cols = []
    for slot in range(width):
        have = [b.cols[slot] for b, _s in parts]
        if all(col is None for col in have):
            cols.append(None)
            continue
        chunks = []
        for (b, _s), col in zip(parts, have):
            if col is None:
                chunks.append(_np.full(b.n, UNBOUND, dtype=_np.int64))
            else:
                chunks.append(col)
        cols.append(_np.concatenate(chunks)[order])
    return Batch(cols, int(len(src_all))), src_all[order]


def _compose(outer, inner):
    """Compose source maps: ``outer`` maps this op's input rows upstream,
    ``inner`` maps its output rows to its input rows."""
    if inner is None:
        return outer
    if outer is None:
        return inner
    return outer[inner]


# --------------------------------------------------------------------------
# Vectorized operators
# --------------------------------------------------------------------------


def _classify(batch: Batch, const, slot):
    """One pattern position over a batch: ``("k", constant)``, ``("w",
    slot)`` (unbound in every row), ``("b", slot)`` (bound in every
    row), or None for mixed boundness (per-row fallback)."""
    if slot is None:
        return ("k", const)
    state = batch.state(slot)
    if state == "none":
        return ("w", slot)
    if state == "all":
        return ("b", slot)
    return None


def _values(kind, batch: Batch):
    """The constant or the bound column of a classified position."""
    return kind[1] if kind[0] == "k" else batch.cols[kind[1]]


def _run_step(op: _StepOp, batch: Batch, vctx: _VecCtx):
    """One join step over a whole batch via composite-key searchsorted."""
    sc, ss, pc, ps, oc, os_ = op.step
    s_kind = _classify(batch, sc, ss)
    o_kind = _classify(batch, oc, os_)
    if s_kind is None or o_kind is None:
        return _per_row(op, batch, vctx)
    if ps is not None:
        if batch.state(ps) != "none":
            return _per_row(op, batch, vctx)  # per-row predicate: rare shape
        return _run_open_predicate(op, s_kind, o_kind, batch, vctx)
    index = vctx.index
    n = batch.n
    s_free, o_free = s_kind[0] == "w", o_kind[0] == "w"
    if not s_free and not o_free:
        # Fully bound: a per-row containment selection.
        idx = _np.nonzero(_contains_mask(index, _values(s_kind, batch), pc,
                                         _values(o_kind, batch), n))[0]
        return _apply_eqs(_take(batch, idx), idx, op.eqs)
    if not s_free:
        # <s>/?s(bound) <p> ?o — probe the SPO runs, bind the object.
        s_vals = _values(s_kind, batch)
        which, bind = 0, {o_kind[1]: 2}
        ranges = lambda run: _pair_ranges(run, s_vals, pc)  # noqa: E731
    elif not o_free:
        # ?s <p> <o>/?o(bound) — probe the POS runs, bind the subject.
        o_vals = _values(o_kind, batch)
        which, bind = 1, {s_kind[1]: 2}
        ranges = lambda run: _pair_ranges(run, pc, o_vals)  # noqa: E731
    else:
        # ?s <p> ?o with both ends free — the scan shape: cross every
        # input row with the predicate's contiguous POS ranges.
        which, bind = 1, {ss: 2, os_: 1}
        ranges = lambda run: run.range1(pc)  # noqa: E731
    return _bind_matches(op, batch, vctx, which, ranges, bind)


def _run_open_predicate(op: _StepOp, s_kind, o_kind, batch: Batch,
                        vctx: _VecCtx):
    """A step whose predicate variable is unbound in every row.

    A bound subject binds predicate and object from its SPO range, a
    bound object binds subject and predicate from its OSP range, and
    both bound read the predicates of their OSP ``(o, s)`` range — each
    in the run order the tuple engine's scans emit.  Both ends free (a
    full scan) takes the per-row fallback.
    """
    _sc, ss, _pc, ps, _oc, os_ = op.step
    if s_kind[0] != "w" and o_kind[0] == "w":
        s_vals = _values(s_kind, batch)
        which, bind = 0, {ps: 1, os_: 2}  # SPO: a=s, b=p, c=o
        ranges = lambda run: _first_ranges(run, s_vals)  # noqa: E731
    elif s_kind[0] == "w" and o_kind[0] != "w":
        o_vals = _values(o_kind, batch)
        which, bind = 2, {ss: 1, ps: 2}  # OSP: a=o, b=s, c=p
        ranges = lambda run: _first_ranges(run, o_vals)  # noqa: E731
    elif s_kind[0] != "w":
        s_vals, o_vals = _values(s_kind, batch), _values(o_kind, batch)
        which, bind = 2, {ps: 2}
        ranges = lambda run: _pair_ranges(run, o_vals, s_vals)  # noqa: E731
    else:
        return _per_row(op, batch, vctx)
    return _bind_matches(op, batch, vctx, which, ranges, bind)


def _bind_matches(op: _StepOp, batch: Batch, vctx: _VecCtx, which, ranges,
                  bind):
    """Expand the batch by the matches of permutation ``which`` (the
    run ranges ``ranges(run)`` gives per row), binding each slot in
    ``bind`` to a run column (0=a, 1=b, 2=c)."""
    try:
        parent, cols = _matches(vctx.index, which, ranges, tuple(bind.values()),
                                batch.n)
    except _ExpansionLimit:
        return _per_row(op, batch, vctx)
    if parent is None:
        return _empty(batch.width), _np.empty(0, _np.int64)
    out = _expand(batch, parent, dict(zip(bind, cols)))
    return _apply_eqs(out, parent, op.eqs)


def _matches(index, which, ranges, columns, n):
    """Every live match of permutation ``which``: ``(parent, values)``,
    ``parent`` the input row each match extends and ``values`` the run
    ``columns`` gathered at the matches, per input row main-run matches
    first, then level-0 matches.  ``(None, None)`` when nothing matches.

    ``ranges(run)`` is the row range ``[lo, hi)`` of one run — scalars
    shared by every input row, or one per row; dead main-run rows drop
    out with one :func:`in_sorted` mask.
    """
    parents, values = [], []
    for run, dead in index.levels(which):
        parent, pos = _ranges_to_positions(*ranges(run), n)
        if parent is None:
            continue
        if dead is not None:
            live = ~in_sorted(dead, pos)
            parent, pos = parent[live], pos[live]
        arrays = run.as_numpy()
        parents.append(parent)
        values.append([arrays[col][pos] for col in columns])
    if len(parents) < 2:
        return (parents[0], values[0]) if parents else (None, None)
    parent = _np.concatenate(parents)
    order = _np.argsort(parent, kind="stable")
    return parent[order], [_np.concatenate(col)[order] for col in zip(*values)]


def _ranges_to_positions(lo, hi, n):
    """Ragged-expand run ranges ``[lo, hi)`` — one shared scalar range or
    one per input row — into ``(parent, pos)``: for every match, the
    input row it extends and its row index inside the run, in
    (row-outer, run-order-inner) order, matching the tuple engine's scan
    loops.  ``(None, None)`` when nothing matches.

    Raises :class:`_ExpansionLimit` when the total fan-out exceeds
    :data:`_MAX_EXPANSION` — the caller falls back to the tuple operator
    instead of attempting one unbounded allocation.
    """
    if not hasattr(lo, "__len__"):
        span = hi - lo
        if span <= 0 or n == 0:
            return None, None
        if n * span > _MAX_EXPANSION:
            raise _ExpansionLimit
        parent = _np.repeat(_np.arange(n, dtype=_np.int64), span)
        pos = _np.tile(_np.arange(lo, hi, dtype=_np.int64), n)
        return parent, pos
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return None, None
    if total > _MAX_EXPANSION:
        raise _ExpansionLimit
    parent = _np.repeat(_np.arange(n, dtype=_np.int64), counts)
    first = _np.cumsum(counts) - counts
    pos = (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(first, counts)
        + _np.repeat(lo, counts)
    )
    return parent, pos


def _first_ranges(run, a_vals):
    """Per-row ranges of one leading key (:meth:`Run.range1`), a scalar
    or a column.  Keys outside the run — pseudo ids included — match
    nothing."""
    if not hasattr(a_vals, "__len__"):
        return run.range1(a_vals)
    a, _b, _c, starts = run.as_numpy()
    if starts is None:  # a level-0 run: bisect its first column
        return (_np.searchsorted(a, a_vals, side="left"),
                _np.searchsorted(a, a_vals, side="right"))
    valid = (a_vals >= 0) & (a_vals < len(starts) - 1)
    idx = _np.where(valid, a_vals, 0)
    lo = starts[idx]
    return lo, _np.where(valid, starts[idx + 1], lo)


def _pair_ranges(run, a_vals, b_vals):
    """Run ranges for two leading keys, each a scalar constant or a
    per-row column (:meth:`Run.pair_ranges`; two constants bisect)."""
    if not hasattr(a_vals, "__len__") and not hasattr(b_vals, "__len__"):
        return run.range2(a_vals, b_vals)
    return run.pair_ranges(a_vals, b_vals)


def _contains_mask(index, s_vals, pc, o_vals, n):
    """Vectorized triple-containment test: a row is kept when its
    ``(s, pc, o)`` is a live row of some SPO run."""
    mask = _np.zeros(n, dtype=bool)
    if pc < 0:
        return mask  # pseudo-id predicate: a term the store never saw
    s_vals = _np.broadcast_to(s_vals, (n,))
    for run, dead in index.levels(0):
        found = run.find_rows(s_vals, pc, o_vals)
        hit = found >= 0
        if dead is not None:
            hit &= ~in_sorted(dead, found)
        mask |= hit
    return mask


def _run_filter(op: FilterOp, batch: Batch, vctx: _VecCtx):
    """FILTER over a batch, in four tiers per constraint.

    Numeric ``?v OP literal`` comparisons vectorize through a float per
    distinct id, read from the term dictionary's memo; type tests
    (``isIRI``/``isLiteral``/... under ``!``/``&&``/``||``) vectorize
    through one kind code per distinct id; every other constraint whose
    register program reads at most one bound column evaluates the program
    once per distinct id into a boolean table (exact expression
    semantics, errors remove the row); multi-column programs fall back to
    the tuple operator for the whole batch.
    """
    mask = None
    for constraint, program in zip(op.filters, op.programs):
        part = _comparison_mask(op, constraint, batch, vctx)
        if part is None:
            part = _type_test_mask(op, constraint, batch, vctx)
        if part is None:
            part = _program_mask(program, batch, vctx)
        if part is None:
            return _per_row(op, batch, vctx)
        mask = part if mask is None else (mask & part)
    if mask is None:
        return batch, _np.arange(batch.n, dtype=_np.int64)
    idx = _np.nonzero(mask)[0]
    return _take(batch, idx), idx


def _comparison_mask(op: FilterOp, constraint, batch: Batch, vctx: _VecCtx):
    """Boolean mask for a numeric-comparison FILTER, or None."""
    compiled = _vectorizable_comparison(op, constraint, batch)
    if compiled is None:
        return None
    slot, opname, const = compiled
    values = _numeric_column(batch.cols[slot], vctx)
    if values is None:
        return None
    if opname == "<":
        return values < const
    if opname == "<=":
        return values <= const
    if opname == ">":
        return values > const
    if opname == ">=":
        return values >= const
    if opname == "=":
        return values == const
    return values != const


#: Kind bits of the type-test tier: the tests a term passes.
_TYPE_TESTS = {"ISIRI": 1, "ISURI": 1, "ISBLANK": 2, "ISLITERAL": 4,
               "ISNUMERIC": 8}


def _term_kind(term) -> int:
    if isinstance(term, Literal):
        return 12 if term.is_numeric else 4
    return 2 if isinstance(term, BNode) else 1


def _type_test_mask(op: FilterOp, constraint, batch: Batch, vctx: _VecCtx):
    """Boolean mask for a FILTER built only from type tests of one fully
    bound column, or None.

    A bound term never makes a type test error, so ``!``/``&&``/``||``
    reduce to numpy boolean algebra over one kind code per distinct id.
    """
    variable = _type_test_variable(constraint.expression)
    slot = dict(op.slot_items).get(variable)
    if slot is None or batch.state(slot) != "all":
        return None
    uniq, inverse = _np.unique(batch.cols[slot], return_inverse=True)
    stored = vctx.plan.dictionary.decode
    decode = vctx.tctx.decode
    kinds = _np.fromiter(
        (_term_kind(stored(i) if i >= 0 else decode(i)) for i in uniq.tolist()),
        dtype=_np.int64, count=len(uniq))
    return _type_test_eval(constraint.expression, kinds)[inverse]


def _type_test_variable(expr):
    """The one variable a pure type-test tree reads, else None."""
    if isinstance(expr, FunctionCall):
        if expr.name.upper() in _TYPE_TESTS and len(expr.args) == 1:
            arg = expr.args[0]
            if isinstance(arg, TermExpr) and isinstance(arg.term, Variable):
                return arg.term
        return None
    if isinstance(expr, NotExpr):
        return _type_test_variable(expr.operand)
    if isinstance(expr, BoolOp):
        found = {_type_test_variable(operand) for operand in expr.operands}
        if len(found) == 1:
            return found.pop()
    return None


def _type_test_eval(expr, kinds):
    if isinstance(expr, FunctionCall):
        return (kinds & _TYPE_TESTS[expr.name.upper()]) != 0
    if isinstance(expr, NotExpr):
        return ~_type_test_eval(expr.operand, kinds)
    parts = [_type_test_eval(operand, kinds) for operand in expr.operands]
    fold = _np.logical_and if expr.op == "&&" else _np.logical_or
    return fold.reduce(parts)


def _program_mask(program, batch: Batch, vctx: _VecCtx):
    """Boolean mask for one FILTER via its register program.

    Sound for programs reading at most one bound column: the program is
    evaluated once per distinct id (``row[slot] = None`` for the
    :data:`UNBOUND` sentinel), with an erroring expression mapping to
    False — SPARQL's error-removes-row rule.  Returns None when two or
    more read columns are bound (cross-column value combinations would
    need a compound key).
    """
    bound = [s for s in program.slots if batch.cols[s] is not None]
    if len(bound) > 1:
        return None
    decode = vctx.tctx.decode
    row = [None] * batch.width
    if not bound:
        try:
            keep = effective_boolean_value(program(row, decode))
        except ExpressionError:
            keep = False
        return _np.full(batch.n, keep, dtype=bool)
    slot = bound[0]
    uniq, inverse = _np.unique(batch.cols[slot], return_inverse=True)
    table = _np.empty(len(uniq), dtype=bool)
    for j, term_id in enumerate(uniq.tolist()):
        row[slot] = None if term_id == UNBOUND else term_id
        try:
            table[j] = effective_boolean_value(program(row, decode))
        except ExpressionError:
            table[j] = False
    return table[inverse]


def _vectorizable_comparison(op: FilterOp, constraint, batch: Batch):
    """``(slot, op, float_const)`` for ``?v OP numeric-literal`` shapes
    over a fully bound column, else None."""
    expr = constraint.expression
    if not isinstance(expr, Comparison):
        return None
    left, right = expr.left, expr.right
    opname = expr.op
    if (isinstance(left, TermExpr) and isinstance(left.term, Variable)
            and isinstance(right, TermExpr) and isinstance(right.term, Literal)):
        variable, literal = left.term, right.term
    elif (isinstance(right, TermExpr) and isinstance(right.term, Variable)
            and isinstance(left, TermExpr) and isinstance(left.term, Literal)):
        variable, literal = right.term, left.term
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        opname = flip.get(opname, opname)
    else:
        return None
    if not literal.is_numeric:
        return None
    try:
        const = float(literal.numeric_value())
    except (ValueError, TypeError):
        return None
    if abs(const) >= _FLOAT_EXACT_LIMIT:
        return None
    slot = dict(op.slot_items).get(variable)
    if slot is None or batch.state(slot) != "all":
        return None
    return slot, opname, const


def _numeric_column(col, vctx: _VecCtx):
    """Float64 view of a column via the term dictionary's numeric memo.

    Non-numeric terms map to NaN: every NaN comparison is False, which
    matches both the SPARQL error-removes-row rule for ``<``/``>`` and
    term inequality for ``=``/``!=`` against a numeric constant.
    Malformed or float-inexact numerics force the per-row fallback
    (returns None) — the tuple engine's exact error semantics apply.
    """
    uniq, inverse = _np.unique(col, return_inverse=True)
    numeric = vctx.plan.dictionary.numeric
    decode = vctx.tctx.decode
    table = []
    for term_id in uniq.tolist():
        value = numeric(term_id) if term_id >= 0 else numeric_of(decode(term_id))
        if value is NOT_NUMERIC:
            value = _np.nan
        elif value is MALFORMED or abs(value) >= _FLOAT_EXACT_LIMIT:
            return None
        table.append(value)
    return _np.array(table, dtype=_np.float64)[inverse]


def _cells(const, slot, batch: Batch) -> list:
    """Per-row ids of one pattern position, None where unbound."""
    if slot is None:
        return [const] * batch.n
    col = batch.cols[slot]
    if col is None:
        return [None] * batch.n
    return [None if v == UNBOUND else v for v in col.tolist()]


def _run_path(op: PathClosure, batch: Batch, vctx: _VecCtx):
    """Property path over a batch: the id-space closure runs once per
    distinct (subject, object) input pair, and its deduplicated pairs
    expand through a parent-index gather — the tuple operator's per-row
    semantics (``?x path ?x`` keeps the diagonal of the free pairs)
    without its row round trip."""
    ctx = vctx.tctx
    check = ctx.check
    same_slot = op.s_slot is not None and op.s_slot == op.o_slot
    memo: dict[tuple, list] = {}
    counts = []
    subjects: list[int] = []
    objects: list[int] = []
    for key in zip(_cells(op.s_const, op.s_slot, batch),
                   _cells(op.o_const, op.o_slot, batch)):
        pairs = memo.get(key)
        if pairs is None:
            s, o = key
            pairs = []
            for sid, oid in _path_pairs(ctx, op.path, s, o):
                check()
                if not (same_slot and s is None) or sid == oid:
                    pairs.append((sid, oid))
            memo[key] = pairs
        counts.append(len(pairs))
        for sid, oid in pairs:
            subjects.append(sid)
            objects.append(oid)
    if not subjects:
        return _empty(batch.width), _np.empty(0, _np.int64)
    parent = _np.repeat(_np.arange(batch.n, dtype=_np.int64), counts)
    # A position bound on input yields itself in every pair, so writing
    # the pair ids is exact for bound and unbound rows alike.
    bound = {}
    if op.s_slot is not None:
        bound[op.s_slot] = _np.array(subjects, dtype=_np.int64)
    if op.o_slot is not None and not same_slot:
        bound[op.o_slot] = _np.array(objects, dtype=_np.int64)
    return _expand(batch, parent, bound), parent


def _run_values(op: ValuesBind, batch: Batch, vctx: _VecCtx):
    """VALUES join: the batch rows joined with the compile-time-encoded
    rows in one key join (:func:`_values_join`)."""
    return _values_join(op.cell_slots, op.encoded_rows, batch)


def _run_subquery(op: SubqueryScan, batch: Batch, vctx: _VecCtx):
    """Subquery join: the inner plan's encoded result rows (materialized
    once per execution, memoized on the shared tuple context) join with
    the exact VALUES compatibility loop — None cells skip like UNDEF."""
    return _values_join(op.cell_slots, op.encoded_rows(vctx.tctx), batch)


def _values_join(cell_slots, encoded_rows, batch: Batch):
    """Shared VALUES/subquery join core: one key join of the batch rows
    with the encoded rows.

    Output rows come by batch row, then by VALUES row, as the tuple
    engine's nested loop yields them.  A batch row and a VALUES row join
    when they agree on every slot both bind; an UNDEF cell or an unbound
    register agrees with anything, and the VALUES row fills what the
    batch row leaves unbound.
    """
    width = batch.width
    slots, values = _value_columns(cell_slots, encoded_rows)
    if not batch.n or not len(values):
        return _empty(width), _np.empty(0, _np.int64)
    keyed = [j for j, slot in enumerate(slots) if batch.cols[slot] is not None]
    left = _np.stack([batch.cols[slots[j]] for j in keyed], axis=1) \
        if keyed else _np.empty((batch.n, 0), _np.int64)
    right = values[:, keyed]
    # Rows binding the same key slots join on exactly the slots both sides
    # bind: one equi-join per pair of such patterns (bit k: slot k bound).
    bits = _np.int64(1) << _np.arange(len(keyed), dtype=_np.int64)
    left_pattern = (left != UNBOUND) @ bits
    right_pattern = (right != UNBOUND) @ bits
    pairs = []
    for lp in set(left_pattern.tolist()):
        lrows = _np.nonzero(left_pattern == lp)[0]
        for rp in set(right_pattern.tolist()):
            rrows = _np.nonzero(right_pattern == rp)[0]
            on = [j for j in range(len(keyed)) if (lp & rp) >> j & 1]
            pairs.append(_equi_join(left[lrows][:, on], lrows,
                                    right[rrows][:, on], rrows))
    rows = _np.concatenate([p[0] for p in pairs])
    picks = _np.concatenate([p[1] for p in pairs])
    if not len(rows):
        return _empty(width), _np.empty(0, _np.int64)
    if len(pairs) > 1:  # one join's pairs come in order already
        order = _np.lexsort((picks, rows))
        rows, picks = rows[order], picks[order]
    out = _take(batch, rows)
    for j, slot in enumerate(slots):
        cells = values[picks, j]
        col = out.cols[slot]
        if col is None:
            if bool((cells == UNBOUND).all()):
                continue
            out.cols[slot] = cells
        else:
            out.cols[slot] = _np.where(col == UNBOUND, cells, col)
    return out, rows


def _value_columns(cell_slots, encoded_rows):
    """The distinct slots of ``cell_slots`` and the encoded rows as an
    int64 matrix over them, UNDEF as :data:`UNBOUND`.

    A slot named twice reads as one cell holding its defined value; a row
    giving it two different values joins nothing and is dropped.
    """
    slots = list(dict.fromkeys(cell_slots))
    position = {slot: j for j, slot in enumerate(slots)}
    matrix = []
    for encoded in encoded_rows:
        row = [UNBOUND] * len(slots)
        for slot, value_id in zip(cell_slots, encoded):
            if value_id is None:
                continue
            j = position[slot]
            if row[j] == UNBOUND:
                row[j] = value_id
            elif row[j] != value_id:
                break
        else:
            matrix.append(row)
    values = _np.array(matrix, dtype=_np.int64).reshape(len(matrix), len(slots))
    return slots, values


def _equi_join(left_keys, left_rows, right_keys, right_rows):
    """``(left row, right row)`` pairs of equal keys (one int64 key column
    per slot; no columns joins everything), by right row within a left
    row."""
    width = left_keys.shape[1]
    if not width:
        return (_np.repeat(left_rows, len(right_rows)),
                _np.tile(right_rows, len(left_rows)))
    # Each key row as one opaque value: sorting and searching compare
    # its bytes, an order that serves equality on any number of columns.
    key = _np.dtype((_np.void, 8 * width))
    left_codes = _np.ascontiguousarray(left_keys).view(key).ravel()
    right_codes = _np.ascontiguousarray(right_keys).view(key).ravel()
    order = _np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    lo = _np.searchsorted(sorted_codes, left_codes, "left")
    counts = _np.searchsorted(sorted_codes, left_codes, "right") - lo
    total = int(counts.sum())
    starts = _np.repeat(lo - _np.cumsum(counts) + counts, counts)
    picks = order[starts + _np.arange(total)]
    return _np.repeat(left_rows, counts), right_rows[picks]


def _run_group(pipeline, batch: Batch, vctx: _VecCtx):
    """A nested GroupPipeline over a batch (OPTIONAL body, UNION branch,
    EXISTS body): the entry check, then the group's one schedule; the
    source map sends each output row to the input row it extends."""
    _raise_group_rebinds(pipeline, batch)
    if pipeline.empty:
        return _empty(batch.width), _np.empty(0, _np.int64)
    out, src = _fold(pipeline.ops, batch, vctx)
    if src is None:
        src = _np.arange(out.n, dtype=_np.int64)
    return out, src


def _raise_group_rebinds(pipeline, batch: Batch) -> None:
    """The group's entry check (:meth:`GroupPipeline.raise_rebinds`) for a
    whole non-empty batch, collapsed to one column test per BIND: any
    row binding a BIND target aborts the query either way."""
    for op in pipeline.binds:
        if isinstance(op, _BindRebind):
            raise _rebind_error(op.bind)
        col = batch.cols[op.slot]
        if col is not None and bool((col != UNBOUND).any()):
            raise _rebind_error(op.bind)


def _run_leftjoin(op: LeftJoin, batch: Batch, vctx: _VecCtx):
    inner_out, src = _run_group(op.inner, batch, vctx)
    matched = _np.zeros(batch.n, dtype=bool)
    if len(src):
        matched[src] = True
    unmatched = _np.nonzero(~matched)[0]
    parts = [(inner_out, src), (_take(batch, unmatched), unmatched)]
    return _merge_parts(parts, batch.width)


def _run_union(op: UnionOp, batch: Batch, vctx: _VecCtx):
    parts = [_run_group(branch, batch, vctx) for branch in op.branches]
    return _merge_parts(list(parts), batch.width)


def _run_bind(op: BindOp, batch: Batch, vctx: _VecCtx):
    """BIND over a batch: decode-once / encode-once via a distinct table.

    The register program runs once per distinct id of its single bound
    dependency column (once total when it reads no bound column — a
    batch-constant expression), each computed term encodes once, and
    the ids scatter column-wise.  An erroring row keeps its old
    register value, exactly like the tuple operator; programs reading
    two or more bound columns run per-row.
    """
    n = batch.n
    identity = _np.arange(n, dtype=_np.int64)
    program = op.program
    bound = [s for s in program.slots if batch.cols[s] is not None]
    if len(bound) > 1:
        return _per_row(op, batch, vctx)
    tctx = vctx.tctx
    row = [None] * batch.width
    old = batch.cols[op.slot]
    if not bound:
        try:
            term = program(row, tctx.decode)
        except ExpressionError:
            return batch, identity  # every row errors: nothing changes
        new_col = _np.full(n, tctx.encode(term), dtype=_np.int64)
    else:
        slot = bound[0]
        uniq, inverse = _np.unique(batch.cols[slot], return_inverse=True)
        # UNBOUND marks "this distinct value errored — keep the old
        # register"; it can never be a real or minted id.
        table = _np.empty(len(uniq), dtype=_np.int64)
        for j, term_id in enumerate(uniq.tolist()):
            row[slot] = None if term_id == UNBOUND else term_id
            try:
                table[j] = tctx.encode(program(row, tctx.decode))
            except ExpressionError:
                table[j] = UNBOUND
        mapped = table[inverse]
        if bool((mapped == UNBOUND).all()):
            return batch, identity
        new_col = mapped if old is None else _np.where(
            mapped == UNBOUND, old, mapped
        )
    cols = list(batch.cols)
    cols[op.slot] = new_col
    return Batch(cols, n), identity


def _run_exists(op: ExistsJoin, batch: Batch, vctx: _VecCtx):
    """EXISTS / NOT EXISTS: the correlated inner pipeline runs over the
    whole batch and collapses to a per-source matched flag.  (The tuple
    operator stops at the first inner match per row; batched we take the
    full inner result — same rows survive, inner bindings never leak.)"""
    _out, src = _run_group(op.inner, batch, vctx)
    matched = _np.zeros(batch.n, dtype=bool)
    if len(src):
        matched[src] = True
    keep = ~matched if op.exists.negated else matched
    idx = _np.nonzero(keep)[0]
    return _take(batch, idx), idx


def _run_minus(op: MinusJoin, batch: Batch, vctx: _VecCtx):
    """MINUS: fold the memoized uncorrelated right side into a removal
    mask, one distinct shared-slot projection at a time.

    Per right row: ``shared`` ORs the columns where both sides bind the
    same id, ``conflict`` ORs the ones where both bind and differ; a
    left row is removed when some right row reaches shared-and-no-
    conflict — the interpreter's compatibility rule, vectorized.
    """
    n = batch.n
    identity = _np.arange(n, dtype=_np.int64)
    right = op.right_rows(vctx.tctx)
    shared_slots = op.shared_slots
    if not right or not shared_slots:
        return batch, identity
    removed = _np.zeros(n, dtype=bool)
    seen = set()
    for other in right:
        key = tuple(other[slot] for slot in shared_slots)
        if key in seen:
            continue
        seen.add(key)
        shared = None
        conflict = None
        for slot, right_id in zip(shared_slots, key):
            if right_id is None:
                continue
            col = batch.cols[slot]
            if col is None:
                continue
            left_bound = col != UNBOUND
            eq = left_bound & (col == right_id)
            ne = left_bound & ~eq
            shared = eq if shared is None else (shared | eq)
            conflict = ne if conflict is None else (conflict | ne)
        if shared is None:
            continue
        removed |= shared if conflict is None else (shared & ~conflict)
    idx = _np.nonzero(~removed)[0]
    if len(idx) == n:
        return batch, identity
    return _take(batch, idx), idx


def _run_op(op, batch: Batch, vctx: _VecCtx):
    if isinstance(op, _StepOp):
        return _run_step(op, batch, vctx)
    if isinstance(op, FilterOp):
        return _run_filter(op, batch, vctx)
    if isinstance(op, ValuesBind):
        return _run_values(op, batch, vctx)
    if isinstance(op, BindOp):
        return _run_bind(op, batch, vctx)
    if isinstance(op, SubqueryScan):
        return _run_subquery(op, batch, vctx)
    if isinstance(op, ExistsJoin):
        return _run_exists(op, batch, vctx)
    if isinstance(op, MinusJoin):
        return _run_minus(op, batch, vctx)
    if isinstance(op, LeftJoin):
        return _run_leftjoin(op, batch, vctx)
    if isinstance(op, UnionOp):
        return _run_union(op, batch, vctx)
    if isinstance(op, PathClosure):
        return _run_path(op, batch, vctx)
    # _BindRebind (which must raise, not compute) and anything future:
    # the universal tuple fallback.
    return _per_row(op, batch, vctx)


def _fold(ops, batch: Batch, vctx: _VecCtx):
    """Run a batch through an operator schedule, composing source maps."""
    srcmap = None
    for op in ops:
        if batch.n == 0:
            return batch, (srcmap if srcmap is not None
                           else _np.empty(0, _np.int64))
        vctx.check()
        batch, inner = _run_op(op, batch, vctx)
        srcmap = _compose(srcmap, inner)
    return batch, srcmap


# --------------------------------------------------------------------------
# Driving scan
# --------------------------------------------------------------------------


class _Driver:
    """A driving scan: the contiguous row range of each run it reads —
    ``(run, dead positions or None, lo, hi)`` — plus the columns it binds
    (``bind`` maps register slot → run column ``"b"`` or ``"c"``)."""

    __slots__ = ("op", "ranges", "bind")

    def __init__(self, op, ranges, bind):
        self.op = op
        self.ranges = ranges
        self.bind = bind


def _find_driver(plan, ops):
    """Recognize a driving scan in the first scheduled operator.

    Three shapes map to one contiguous range per run: ``?s <p> ?o`` (POS
    range1), ``?s <p> <o>`` (POS range2) and ``<s> <p> ?o`` (SPO
    range2).  Without one (a VALUES, a BIND or another scan shape comes
    first) the plan starts from a single seed row, and every operator
    still runs batched from it."""
    if not ops or not isinstance(ops[0], IndexScan):
        return None
    sc, ss, pc, ps, oc, os_ = ops[0].step
    if pc is None or ps is not None:
        return None
    if sc is None and ss is not None and os_ is not None and oc is None:
        which, key, bind = 1, (pc,), ((ss, "c"), (os_, "b"))  # POS: a=p, b=o, c=s
    elif sc is None and ss is not None and oc is not None and os_ is None:
        which, key, bind = 1, (pc, oc), ((ss, "c"),)
    elif sc is not None and ss is None and oc is None and os_ is not None:
        which, key, bind = 0, (sc, pc), ((os_, "c"),)  # SPO: a=s, b=p, c=o
    else:
        return None
    ranges = []
    for run, dead in plan.index.levels(which):
        lo, hi = run.range1(*key) if len(key) == 1 else run.range2(*key)
        if lo < hi:
            ranges.append((run, dead, lo, hi))
    return _Driver(ops[0], ranges, bind)


def _driver_batch(driver: _Driver, part, width, eqs):
    """One slice of the driving scan: zero-copy column slices of one
    run, less its dead rows and the rows failing ``eqs``."""
    run, dead, lo, hi = part
    n = hi - lo
    cols: list = [None] * width
    _a, b_np, c_np, _st = run.as_numpy()
    by_slot = {
        slot: (c_np if which == "c" else b_np)[lo:hi]
        for slot, which in driver.bind
    }
    mask = None if dead is None else ~in_sorted(dead, _np.arange(lo, hi))
    for a, b in eqs:
        same = by_slot[a] == by_slot[b]
        mask = same if mask is None else (mask & same)
    if mask is not None:
        idx = _np.nonzero(mask)[0]
        by_slot = {slot: col[idx] for slot, col in by_slot.items()}
        n = len(idx)
    for slot, col in by_slot.items():
        cols[slot] = col
    return Batch(cols, int(n))


def _seed_batch(plan) -> Batch:
    return Batch([None] * plan.num_registers, 1)


def _scan_ranges(driver: _Driver, batch_size: int):
    return [
        (run, dead, start, min(start + batch_size, hi))
        for run, dead, lo, hi in driver.ranges
        for start in range(lo, hi, batch_size)
    ]


# --------------------------------------------------------------------------
# Plan execution entry points
# --------------------------------------------------------------------------


def collect_batches(plan, deadline, config: VecConfig | None = None,
                    vctx: _VecCtx | None = None) -> list[Batch]:
    """All final top-level batches, in driving-scan order — the same row
    order the tuple engine produces."""
    config = config or _DEFAULT_CONFIG
    plan.root.raise_rebinds([None] * plan.num_registers)
    if plan.empty:
        return []
    if vctx is None:
        vctx = _VecCtx(plan, deadline, config)
    ops = plan.root.ops
    driver = _find_driver(plan, ops)
    if driver is None:
        vctx.check()
        out, _src = _fold(ops, _seed_batch(plan), vctx)
        return [out] if out.n else []
    rest = ops[1:]
    eqs = driver.op.eqs
    width = plan.num_registers
    batches = []
    for part in _scan_ranges(driver, config.batch_size):
        vctx.check()
        out, _src = _fold(rest, _driver_batch(driver, part, width, eqs), vctx)
        if out.n:
            batches.append(out)
    return batches


def _decoded_columns(plan, batch: Batch, vctx: _VecCtx, slot_items):
    """Per-slot decoded term lists (None entries for unbound cells),
    decoding each distinct id once through the shared memo."""
    decode = vctx.tctx.decode
    columns = []
    for variable, slot in slot_items:
        col = batch.cols[slot]
        if col is None:
            columns.append((variable, None))
            continue
        uniq, inverse = _np.unique(col, return_inverse=True)
        table = [
            None if term_id == UNBOUND else decode(term_id)
            for term_id in uniq.tolist()
        ]
        columns.append((variable, [table[j] for j in inverse.tolist()]))
    return columns


def vec_solutions(plan, deadline, config: VecConfig | None = None,
                  vctx: _VecCtx | None = None) -> list:
    """Decoded bindings, row order identical to ``WherePlan.solutions``."""
    config = config or _DEFAULT_CONFIG
    if vctx is None:
        vctx = _VecCtx(plan, deadline, config)
    out: list = []
    for batch in collect_batches(plan, deadline, config, vctx):
        columns = _decoded_columns(plan, batch, vctx, plan.slot_items)
        bound = [(v, c) for v, c in columns if c is not None]
        for i in range(batch.n):
            binding = {}
            for variable, cells in bound:
                term = cells[i]
                if term is not None:
                    binding[variable] = term
            out.append(binding)
    return out


def vec_rows(plan, variables, deadline, config: VecConfig | None = None,
             vctx: _VecCtx | None = None) -> list:
    """Projected result rows built straight from batch columns — no
    binding dicts.  Only valid when every projection is a bare variable
    (the caller checks); unknown variables project as None."""
    config = config or _DEFAULT_CONFIG
    if vctx is None:
        vctx = _VecCtx(plan, deadline, config)
    slots = plan.slots
    rows: list = []
    for batch in collect_batches(plan, deadline, config, vctx):
        per_var = []
        for variable in variables:
            slot = slots.get(variable)
            if slot is None:
                per_var.append([None] * batch.n)
            else:
                decoded = _decoded_columns(
                    plan, batch, vctx, ((variable, slot),)
                )[0][1]
                per_var.append(decoded if decoded is not None
                               else [None] * batch.n)
        if per_var:
            rows.extend(zip(*per_var))
        else:
            rows.extend(() for _ in range(batch.n))
    return rows


# --------------------------------------------------------------------------
# Static analysis (explain)
# --------------------------------------------------------------------------


def analyze_plan(plan, batch_size: int | None = None) -> dict:
    """What batched execution would do — for ``explain()`` rendering.

    Returns the batch size, the driving scan (pattern string, or None)
    and how many batches it splits into.  Without a driving scan,
    ``no_driver`` says why: ``"empty"`` (a constant is absent, nothing
    runs) or ``"no driving scan"`` (see :func:`_find_driver`).  Purely
    static: nothing is executed.
    """
    config = VecConfig(batch_size=batch_size)
    info = {"batch_size": config.batch_size, "driver": None, "batches": 0,
            "no_driver": "empty"}
    if plan is None or getattr(plan, "empty", True):
        return info
    driver = _find_driver(plan, plan.root.ops)
    if driver is None:
        info["no_driver"] = "no driving scan"
        return info
    info["no_driver"] = None
    info["driver"] = driver.op.pattern.to_sparql()
    info["batches"] = max(1, len(_scan_ranges(driver, config.batch_size)))
    return info
