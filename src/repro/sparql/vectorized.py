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
* **Fast paths and fallback** — vectorized probes slice the sorted runs
  through cached composite keys (:meth:`Run.key12` + ``searchsorted``)
  or first-key offsets (a variable predicate) and are only sound when
  the run is the complete truth (:meth:`TripleIndex.pure_run`); with
  buffered deltas/tombstones or a mixed-boundness column, the affected
  operator falls back to the tuple engine *per batch* (rows are
  round-tripped through the operator's own ``run``, and counted as
  ``fallback_batch_rows``), so every shape the tuple engine supports
  runs batched with identical semantics.  Property paths run their
  id-space closure once per distinct input pair.
* **Driving scan** — when the first scheduled operator is an
  ``IndexScan`` over a pure run, its row range is sliced into
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
from ..store.index import MALFORMED, NOT_NUMERIC, numeric_of
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
    pure = vctx.index.pure_run
    m = len(vctx.plan.dictionary)
    n = batch.n

    if s_kind[0] != "w" and o_kind[0] == "w":
        # <s>/?s(bound) <p> ?o — probe the SPO run, bind the object.
        run = pure(0)
        if run is None:
            return _per_row(op, batch, vctx)
        try:
            parent, pos = _probe_positions(run, m, _values(s_kind, batch), pc, n)
        except _ExpansionLimit:
            return _per_row(op, batch, vctx)
        if parent is None:
            return _empty(batch.width), _np.empty(0, _np.int64)
        c_np = run.as_numpy()[2]
        out = _expand(batch, parent, {o_kind[1]: c_np[pos]})
        return _apply_eqs(out, parent, op.eqs)

    if s_kind[0] == "w" and o_kind[0] != "w":
        # ?s <p> <o>/?o(bound) — probe the POS run, bind the subject.
        run = pure(1)
        if run is None:
            return _per_row(op, batch, vctx)
        try:
            parent, pos = _probe_positions(run, m, pc, _values(o_kind, batch), n)
        except _ExpansionLimit:
            return _per_row(op, batch, vctx)
        if parent is None:
            return _empty(batch.width), _np.empty(0, _np.int64)
        c_np = run.as_numpy()[2]
        out = _expand(batch, parent, {s_kind[1]: c_np[pos]})
        return _apply_eqs(out, parent, op.eqs)

    if s_kind[0] != "w" and o_kind[0] != "w":
        # Fully bound: a pure per-row containment selection.
        run = pure(0)
        if run is None:
            return _per_row(op, batch, vctx)
        mask = _contains_mask(run, m, _values(s_kind, batch),
                              _values(o_kind, batch), pc, n)
        idx = _np.nonzero(mask)[0]
        return _apply_eqs(_take(batch, idx), idx, op.eqs)

    # ?s <p> ?o with both ends free — the scan shape: cross every input
    # row with the predicate's contiguous POS range.
    run = pure(1)
    if run is None:
        return _per_row(op, batch, vctx)
    try:
        parent, pos = _first_key_positions(run, pc, n)
    except _ExpansionLimit:
        return _per_row(op, batch, vctx)
    if parent is None:
        return _empty(batch.width), _np.empty(0, _np.int64)
    _a, b_np, c_np, _st = run.as_numpy()
    out = _expand(batch, parent, {ss: c_np[pos], os_: b_np[pos]})
    return _apply_eqs(out, parent, op.eqs)


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
    pure = vctx.index.pure_run
    n = batch.n
    if s_kind[0] != "w" and o_kind[0] == "w":
        which, bind = 0, {ps: 1, os_: 2}  # SPO: a=s, b=p, c=o
    elif s_kind[0] == "w" and o_kind[0] != "w":
        which, bind = 2, {ss: 1, ps: 2}  # OSP: a=o, b=s, c=p
    elif s_kind[0] != "w":
        which, bind = 2, {ps: 2}
    else:
        return _per_row(op, batch, vctx)
    run = pure(which)
    if run is None:
        return _per_row(op, batch, vctx)
    try:
        if len(bind) == 2:
            first = s_kind if which == 0 else o_kind
            parent, pos = _first_key_positions(run, _values(first, batch), n)
        else:
            parent, pos = _probe_positions(
                run, len(vctx.plan.dictionary), _values(o_kind, batch),
                _values(s_kind, batch), n)
    except _ExpansionLimit:
        return _per_row(op, batch, vctx)
    if parent is None:
        return _empty(batch.width), _np.empty(0, _np.int64)
    cols = run.as_numpy()
    out = _expand(batch, parent, {slot: cols[col][pos]
                                  for slot, col in bind.items()})
    return _apply_eqs(out, parent, op.eqs)


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


def _first_key_positions(run, a_vals, n):
    """Per-row ranges of one leading key (:meth:`Run.range1`), expanded
    by :func:`_ranges_to_positions`; ``a_vals`` is a scalar or a column.
    Keys outside the offset array — pseudo ids included — match nothing."""
    if not hasattr(a_vals, "__len__"):
        lo, hi = run.range1(a_vals)
        return _ranges_to_positions(lo, hi, n)
    starts = run.as_numpy()[3]
    valid = (a_vals >= 0) & (a_vals < len(starts) - 1)
    if not bool(valid.any()):
        return None, None
    idx = _np.where(valid, a_vals, 0)
    lo = starts[idx]
    hi = _np.where(valid, starts[idx + 1], lo)
    return _ranges_to_positions(lo, hi, n)


def _probe_positions(run, m, a_vals, b_vals, n):
    """Per-row run ranges for two bound leading keys, ragged-expanded by
    :func:`_ranges_to_positions`.

    Either key may be a scalar constant or a per-row column;
    broadcasting covers both probe orientations.

    Negative key components are plan-local pseudo ids — terms the store
    has never seen, which match nothing — and they must be neutralized
    *before* forming the composite ``a * m + b``: a negative second
    component aliases the key of the previous first-key group
    (``a*m - k == (a-1)*m + (m-k)``), which would emit false joins.
    Rows holding one are probed with ``-1``, below every real key, so
    they miss.  (A negative *first* component already yields a negative
    composite and misses on its own, but masking both is cheapest.)
    """
    keys = run.key12(m)
    scalar_a = not hasattr(a_vals, "__len__")
    scalar_b = not hasattr(b_vals, "__len__")
    if (scalar_a and a_vals < 0) or (scalar_b and b_vals < 0):
        return None, None  # constant pseudo id: no stored triple matches
    if scalar_a and scalar_b:
        lo = int(_np.searchsorted(keys, a_vals * m + b_vals, side="left"))
        hi = int(_np.searchsorted(keys, a_vals * m + b_vals, side="right"))
        return _ranges_to_positions(lo, hi, n)
    query = a_vals * m + b_vals
    invalid = None
    if not scalar_a:
        invalid = a_vals < 0
    if not scalar_b:
        neg_b = b_vals < 0
        invalid = neg_b if invalid is None else (invalid | neg_b)
    if invalid is not None and bool(invalid.any()):
        query = _np.where(invalid, _np.int64(-1), query)
    lo = _np.searchsorted(keys, query, side="left")
    hi = _np.searchsorted(keys, query, side="right")
    return _ranges_to_positions(lo, hi, n)


def _contains_mask(run, m, s_vals, o_vals, pc, n):
    """Vectorized triple-containment test over the SPO run.

    Rows whose ``(s, p)`` range holds at most one object — the dominant
    star-schema case — resolve in pure array ops; wider ranges fall back
    to a bounded bisect per row.
    """
    from bisect import bisect_left

    if pc < 0:
        # Pseudo-id predicate (term the store never saw): nothing matches,
        # and the composite below would alias the previous subject group.
        return _np.zeros(n, dtype=bool)
    keys = run.key12(m)
    if not hasattr(s_vals, "__len__"):
        s_vals = _np.full(n, s_vals, dtype=_np.int64)
    if not hasattr(o_vals, "__len__"):
        o_vals = _np.full(n, o_vals, dtype=_np.int64)
    query = s_vals * m + pc
    lo = _np.searchsorted(keys, query, side="left")
    hi = _np.searchsorted(keys, query, side="right")
    counts = hi - lo
    c_np = run.as_numpy()[2]
    mask = _np.zeros(n, dtype=bool)
    single = counts == 1
    if single.any():
        mask[single] = c_np[lo[single]] == o_vals[single]
    wide = _np.nonzero(counts > 1)[0]
    if len(wide):
        c_col = run.c
        for i in wide.tolist():
            row_lo, row_hi = int(lo[i]), int(hi[i])
            target = int(o_vals[i])
            j = bisect_left(c_col, target, row_lo, row_hi)
            mask[i] = j < row_hi and c_col[j] == target
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
    """VALUES join: per value row, a compatibility mask + overridden
    columns; outputs interleaved back into (row, value-row) order."""
    return _values_join(op.cell_slots, op.encoded_rows, batch)


def _run_subquery(op: SubqueryScan, batch: Batch, vctx: _VecCtx):
    """Subquery join: the inner plan's encoded result rows (materialized
    once per execution, memoized on the shared tuple context) join with
    the exact VALUES compatibility loop — None cells skip like UNDEF."""
    return _values_join(op.cell_slots, op.encoded_rows(vctx.tctx), batch)


def _values_join(cell_slots, encoded_rows, batch: Batch):
    """Shared VALUES/subquery join core (see :func:`_run_values`)."""
    n = batch.n
    width = batch.width
    parts = []
    for value_row in encoded_rows:
        mask = _np.ones(n, dtype=bool)
        override: dict[int, tuple] = {}
        for slot, value_id in zip(cell_slots, value_row):
            if value_id is None:  # UNDEF leaves the register as-is
                continue
            col = batch.cols[slot]
            if col is None:
                override[slot] = ("fill", value_id)
            else:
                unbound = col == UNBOUND
                mask &= unbound | (col == value_id)
                if bool(unbound.any()):
                    override[slot] = ("where", value_id)
        idx = _np.nonzero(mask)[0]
        if not len(idx):
            continue
        part = _take(batch, idx)
        for slot, (how, value_id) in override.items():
            if how == "fill":
                part.cols[slot] = _np.full(len(idx), value_id, dtype=_np.int64)
            else:
                col = part.cols[slot]
                part.cols[slot] = _np.where(col == UNBOUND, value_id, col)
            part._states.pop(slot, None)
        parts.append((part, idx))
    return _merge_parts(parts, width)


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
    """A driving scan: a contiguous pure-run row range plus the columns
    it binds (``bind`` maps register slot → run column ``"b"`` or
    ``"c"``)."""

    __slots__ = ("op", "run", "lo", "hi", "bind")

    def __init__(self, op, run, lo, hi, bind):
        self.op = op
        self.run = run
        self.lo = lo
        self.hi = hi
        self.bind = bind


def _find_driver(plan, ops):
    """Recognize a driving scan in the first scheduled operator.

    Three shapes map to a contiguous run range: ``?s <p> ?o`` (POS
    range1), ``?s <p> <o>`` (POS range2) and ``<s> <p> ?o`` (SPO
    range2).  Without one the plan starts from a single seed row, in
    one of two cases.  With buffered deltas or tombstones no run is pure,
    so scans and probes take the per-row fallback.  Over pure runs whose
    first operator is something else (a VALUES, a BIND, another scan
    shape), every operator still runs batched from that seed row."""
    if not ops or not isinstance(ops[0], IndexScan):
        return None
    sc, ss, pc, ps, oc, os_ = ops[0].step
    if pc is None or ps is not None:
        return None
    pure = plan.index.pure_run
    if sc is None and ss is not None:
        run = pure(1)  # POS: a=p, b=o, c=s
        if run is None:
            return None
        if oc is None and os_ is not None:
            lo, hi = run.range1(pc)
            return _Driver(ops[0], run, lo, hi, ((ss, "c"), (os_, "b")))
        if oc is not None and os_ is None:
            lo, hi = run.range2(pc, oc)
            return _Driver(ops[0], run, lo, hi, ((ss, "c"),))
        return None
    if sc is not None and ss is None and oc is None and os_ is not None:
        run = pure(0)  # SPO: a=s, b=p, c=o
        if run is None:
            return None
        lo, hi = run.range2(sc, pc)
        return _Driver(ops[0], run, lo, hi, ((os_, "c"),))
    return None


def _driver_batch(driver: _Driver, lo, hi, width, eqs):
    """One slice of the driving scan, as zero-copy column slices."""
    n = hi - lo
    cols: list = [None] * width
    _a, b_np, c_np, _st = driver.run.as_numpy()
    by_slot = {
        slot: (c_np if which == "c" else b_np)[lo:hi]
        for slot, which in driver.bind
    }
    mask = None
    for a, b in eqs:
        part = by_slot[a] == by_slot[b]
        mask = part if mask is None else (mask & part)
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
        (start, min(start + batch_size, driver.hi))
        for start in range(driver.lo, driver.hi, batch_size)
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
    for lo, hi in _scan_ranges(driver, config.batch_size):
        vctx.check()
        out, _src = _fold(rest, _driver_batch(driver, lo, hi, width, eqs), vctx)
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
    runs), ``"buffered writes"`` or ``"no driving scan"`` (see
    :func:`_find_driver`).  Purely static: nothing is executed.
    """
    config = VecConfig(batch_size=batch_size)
    info = {"batch_size": config.batch_size, "driver": None, "batches": 0,
            "no_driver": "empty"}
    if plan is None or getattr(plan, "empty", True):
        return info
    driver = _find_driver(plan, plan.root.ops)
    if driver is None:
        info["no_driver"] = ("buffered writes" if plan.index.pure_run(0) is None
                             else "no driving scan")
        return info
    info["no_driver"] = None
    info["driver"] = driver.op.pattern.to_sparql()
    info["batches"] = max(1, len(_scan_ranges(driver, config.batch_size)))
    return info
