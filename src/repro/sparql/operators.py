"""Unified id-space physical operators for SPARQL query bodies.

The single physical plan layer: everything a WHERE clause can hold —
basic graph patterns, OPTIONAL decorations, UNION'd interpretation
combinations, VALUES member lists, ``skos:broader``-style property
paths — lowers onto a small set of streaming operators in the classic
Volcano/iterator style, all working over one register file of integer
term ids.  Constants are encoded once at compile time, variables get
dense register slots, and ids are decoded back to RDF terms only at the
result boundary, through a per-execution memo.

Operator taxonomy (one class per physical operator):

* :class:`IndexScan` / :class:`NestedProbe` — one triple-pattern join
  step probing the SPO/POS/OSP permutation indexes; *scan* when the
  pattern shares no variable with what is already bound, *probe* when it
  extends bound registers (the id-space analogue of an index nested-loop
  join);
* :class:`FilterOp` — evaluates FILTER constraints through
  register-level expression programs (:mod:`repro.sparql.rexpr`) that
  read integer registers directly and decode each distinct id once;
  errors remove the row, per SPARQL;
* :class:`ValuesBind` — joins compile-time-encoded VALUES rows against
  the register file (UNDEF leaves a register untouched);
* :class:`BindOp` — BIND: a register program computes a term per row
  and writes its id into a fresh register, minting execution-local
  pseudo ids for terms the store has never seen; an erroring expression
  leaves the register untouched;
* :class:`SubqueryScan` — a nested ``{ SELECT ... }`` compiled to its
  own plan (plain or aggregate), executed bottom-up once per query and
  joined against the register file exactly like VALUES rows;
* :class:`LeftJoin` — OPTIONAL: runs an inner pipeline per row and
  passes the row through unchanged when the inner produces nothing;
* :class:`UnionOp` — runs each branch pipeline per row, concatenating
  branch outputs in branch order;
* :class:`ExistsJoin` — FILTER [NOT] EXISTS as a correlated semi/anti
  join: the inner pipeline runs per row, stops at the first match, and
  the row survives when matchedness disagrees with negation;
* :class:`MinusJoin` — MINUS as an anti-join on shared-variable
  compatibility: the uncorrelated right side materializes once per
  execution and a row is dropped when some right row shares at least
  one bound register and agrees on all shared ones;
* :class:`PathClosure` — property-path evaluation entirely in id space:
  BFS over the POS/OSP integer indexes with per-execution memoized
  reachability frontiers (see :func:`_reachable_ids`);
* :class:`OrderLimit` — ORDER BY with the bounded top-k heap; shared
  verbatim by the compiled and term-space engines so tie-breaking can
  never diverge between them;
* ``AggregateFold`` — the terminal grouping/accumulator stage lives in
  :mod:`repro.sparql.aggregator` (``AggregatePlan``) and consumes this
  module's row stream.

Groups compile to :class:`GroupPipeline` objects rather than flat
operator lists because the term-space interpreter — which stays behind
``compile=False`` as the differential oracle — schedules FILTERs
against the set of variables *actually bound in the incoming binding*:
for a nested group (an OPTIONAL body, a UNION branch) that set is a
per-row property.  The pipeline therefore keeps its filters unplaced at
compile time and interleaves them at execution, memoized per
(group, entry-mask), reproducing ``Evaluator._eval_group``'s attachment
points exactly: ready filters attach after pattern join steps only, and
whatever is left runs at the end of the group.

Constants the dictionary has never seen get *pseudo ids* (negative,
plan-local): they can never equal a real id, so joins against them fail
exactly as term comparison would, while zero-length path semantics and
decode-at-the-boundary still work.  A never-seen constant in a plain
triple pattern short-circuits its *group* to the empty pipeline — only
its group, so an OPTIONAL over it still passes rows through and a UNION
branch over it merely contributes nothing.

Constants the store has never seen get compile-time pseudo ids; terms
*computed* at runtime (BIND results, subquery cells) that the store has
never seen get execution-local pseudo ids minted by
:meth:`_ExecContext.encode`, continuing the same negative id space past
the plan's ``extra_terms`` table.  Minting is locked and consistent —
the same term always maps to the same id within an execution — so id
equality remains term equality everywhere downstream.

:func:`compile_where` returns ``(plan, None)`` or ``(None, reason)``;
the decline reason strings feed the endpoint's per-reason fallback
tally.  Shapes that still decline — and why:

* ``path-shape`` — a property-path construct outside the compiled path
  program forms;
* ``no-id-backend`` — multi-graph union views have no shared id space.

A subquery whose *inner* query declines (e.g. an unsupported aggregate
shape) propagates the inner reason outward.  The term-space interpreter
stays behind ``compile=False`` purely as the differential oracle.

A repeated variable within one pattern (``?x <p> ?x``) binds its second
occurrence into a scratch register and enforces the intra-pattern join
with a register-equality check fused into the step (see
:meth:`_Lowering.lower_step`, the one per-pattern lowering).

Plans are immutable after compilation and hold no per-execution state:
each execution builds a private :class:`_ExecContext`.
"""

from __future__ import annotations

import heapq
import threading
from typing import Iterable, Iterator

from ..errors import QueryEvaluationError
from ..rdf.terms import IRI, Node, Variable
from .ast import (
    AlternativePath,
    BindClause,
    ExistsFilter,
    Filter,
    GroupGraphPattern,
    InversePath,
    MinusPattern,
    OneOrMorePath,
    OptionalPattern,
    OrderCondition,
    PropertyPath,
    SequencePath,
    SubSelect,
    TriplePattern,
    UnionPattern,
    ValuesClause,
    ZeroOrMorePath,
)
from .expressions import ExpressionError, effective_boolean_value, evaluate
from .optimizer import order_patterns
from .rexpr import compile_expression

__all__ = [
    "WherePlan",
    "compile_where",
    "id_backend",
    "OrderLimit",
    "GroupPipeline",
    "IndexScan",
    "NestedProbe",
    "FilterOp",
    "ValuesBind",
    "BindOp",
    "SubqueryScan",
    "LeftJoin",
    "UnionOp",
    "ExistsJoin",
    "MinusJoin",
    "PathClosure",
]

Binding = dict[Variable, Node]

_EMPTY_MASK: frozenset = frozenset()


class _Decline(Exception):
    """Raised during lowering for a shape the operator set cannot take."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _ExecContext:
    """Per-execution state: deadline, codec memos, schedule and path memos.

    The context is also the execution-local *value codec*: ``decode``
    memoizes id → term for both store ids and pseudo ids, and ``encode``
    maps a computed term back to an id — the store's id when the term is
    stored, the plan's compile-time pseudo id when the plan already
    tabled it, or a freshly minted execution-local pseudo id otherwise.
    Minting continues the negative id space past ``extra_terms`` and
    takes a lock: the decode/schedule memos are idempotent caches, where
    a race only costs a recompute, but minting is the one step that must
    never hand the same term two different ids.
    """

    __slots__ = (
        "index", "check", "decode_raw", "memo", "path_memo", "schedules",
        "deadline", "dictionary", "num_registers", "_pseudo", "_mint_base",
        "runtime_terms", "_minted", "_mint_lock", "op_memo",
    )

    def __init__(self, plan: "WherePlan", deadline):
        self.index = plan.index
        self.check = deadline.check
        self.deadline = deadline
        self.decode_raw = plan.decode
        self.dictionary = plan.dictionary
        self.num_registers = plan.num_registers
        self._pseudo = plan.pseudo_ids
        self._mint_base = len(plan.extra_terms)
        self.runtime_terms: list[Node] = []
        self._minted: dict[Node, int] = {}
        self._mint_lock = threading.Lock()
        self.memo: dict[int, Node] = {}
        self.path_memo: dict[tuple, list[int]] = {}
        self.schedules: dict[tuple, tuple] = {}
        self.op_memo: dict[int, tuple] = {}

    def decode(self, term_id: int) -> Node:
        term = self.memo.get(term_id)
        if term is None:
            if term_id < 0 and -1 - term_id >= self._mint_base:
                term = self.runtime_terms[-1 - term_id - self._mint_base]
            else:
                term = self.decode_raw(term_id)
            self.memo[term_id] = term
        return term

    def encode(self, term: Node) -> int:
        """The term's store id, plan pseudo id, or a fresh runtime mint."""
        term_id = self.dictionary.lookup(term)
        if term_id is not None:
            return term_id
        pseudo = self._pseudo.get(term)
        if pseudo is not None:
            return pseudo
        minted = self._minted.get(term)
        if minted is None:
            with self._mint_lock:
                minted = self._minted.get(term)
                if minted is None:
                    minted = -1 - self._mint_base - len(self.runtime_terms)
                    self.runtime_terms.append(term)
                    self._minted[term] = minted
        return minted

    def schedule(self, pipeline: "GroupPipeline", mask: frozenset) -> tuple:
        key = (pipeline.gid, mask)
        ops = self.schedules.get(key)
        if ops is None:
            ops = pipeline.build_schedule(mask)
            self.schedules[key] = ops
        return ops


def _run_pipeline(ops, rows, ctx) -> Iterator[list]:
    """Chain a sub-pipeline lazily over ``rows``."""
    for op in ops:
        rows = op.run(rows, ctx)
    return rows


# --------------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------------


class PhysicalOp:
    """Base class: a streaming transformer of register-file rows."""

    kind = "Op"
    __slots__ = ()

    def run(self, rows: Iterable[list], ctx: _ExecContext) -> Iterator[list]:
        raise NotImplementedError

    def children(self) -> tuple[tuple[str, "GroupPipeline"], ...]:
        """Sub-pipelines, as (label, pipeline) pairs — for explain."""
        return ()

    def describe(self) -> str:
        return ""


class _StepOp(PhysicalOp):
    """One triple-pattern join step over the integer indexes.

    ``step`` is ``(s_const, s_slot, p_const, p_slot, o_const, o_slot)``:
    for each position exactly one of (encoded constant, register slot)
    is set.  A slot whose register is still ``None`` acts as a wildcard.

    ``eqs`` holds register-equality pairs for patterns that repeat a
    variable (``?x <p> ?x``): the repeated occurrence binds a scratch
    register and each ``(canonical, scratch)`` pair must agree after the
    step — the id-space analogue of the interpreter's bind-consistency
    check.  Both registers are always bound once the step has run, so
    plain integer equality suffices.
    """

    __slots__ = ("pattern", "step", "eqs")

    def __init__(self, pattern: TriplePattern, step: tuple, eqs: tuple = ()):
        self.pattern = pattern
        self.step = step
        self.eqs = eqs

    def describe(self) -> str:
        return self.pattern.to_sparql()

    def run(self, rows, ctx):
        out = self._run_plain(rows, ctx)
        if not self.eqs:
            return out
        return _eq_filter(out, self.eqs)

    def _run_plain(self, rows, ctx):
        sc, ss, pc, ps, oc, os_ = self.step
        index = ctx.index
        scan_objects = index.scan_objects
        scan_subjects = index.scan_subjects
        scan_predicates = index.scan_predicates
        predicate_pairs = index.predicate_pairs
        contains = index.contains
        match = index.match
        check = ctx.check
        for row in rows:
            s = sc if ss is None else row[ss]
            p = pc if ps is None else row[ps]
            o = oc if os_ is None else row[os_]
            # The three ≥2-bound shapes are contiguous run slices and
            # bind at most one register.
            if s is not None and p is not None:
                if o is not None:
                    check()
                    if contains(s, p, o):
                        yield row  # fully bound: the row is unchanged
                    continue
                for oid in scan_objects(s, p):
                    check()
                    new = row.copy()
                    new[os_] = oid
                    yield new
                continue
            if p is not None and o is not None:
                for sid in scan_subjects(p, o):
                    check()
                    new = row.copy()
                    new[ss] = sid
                    yield new
                continue
            if s is not None and o is not None:
                for pid in scan_predicates(s, o):
                    check()
                    new = row.copy()
                    new[ps] = pid
                    yield new
                continue
            if p is not None:
                # ?s <p> ?o — the IndexScan workhorse.  The pair stream
                # is two zipped column slices, so the loop body is one
                # row copy + two register writes
                # per triple of the predicate's contiguous range.
                for sid, oid in predicate_pairs(p):
                    check()
                    new = row.copy()
                    new[ss] = sid
                    new[os_] = oid
                    yield new
                continue
            for sid, pid, oid in match(s, p, o):
                check()
                new = row.copy()
                if ss is not None:
                    new[ss] = sid
                if ps is not None:
                    new[ps] = pid
                if os_ is not None:
                    new[os_] = oid
                yield new


def _eq_filter(rows, eqs):
    """Keep only rows whose paired registers agree (repeated variables)."""
    for row in rows:
        for a, b in eqs:
            if row[a] != row[b]:
                break
        else:
            yield row


class IndexScan(_StepOp):
    """A step sharing no variable with anything possibly bound before it."""

    kind = "IndexScan"
    __slots__ = ()


class NestedProbe(_StepOp):
    """A step extending already-bound registers (index nested-loop join)."""

    kind = "NestedProbe"
    __slots__ = ()


class _FilterUnit:
    """One FILTER constraint: variable set, register slots, and its
    compiled register program."""

    __slots__ = ("constraint", "variables", "slot_items", "program")

    def __init__(self, constraint: Filter, variables: frozenset, slot_items: tuple,
                 program):
        self.constraint = constraint
        self.variables = variables
        self.slot_items = slot_items
        self.program = program


class FilterOp(PhysicalOp):
    """FILTER constraints evaluated as register programs.

    Each constraint is compiled once (:mod:`repro.sparql.rexpr`) against
    the plan's slot map; at execution it reads integer registers
    directly and decodes through the context's memoized codec — no
    binding dicts.  A variable with no register (never bound anywhere in
    the plan) compiles to an always-error closure, so evaluation errors
    and removes the row — the term-space engine's behaviour for filters
    over unbound variables.
    """

    kind = "Filter"
    __slots__ = ("slot_items", "filters", "programs")

    def __init__(self, units: tuple[_FilterUnit, ...]):
        merged: dict[Variable, int] = {}
        for unit in units:
            for variable, slot in unit.slot_items:
                merged[variable] = slot
        self.slot_items = tuple(merged.items())
        self.filters = tuple(unit.constraint for unit in units)
        self.programs = tuple(unit.program for unit in units)

    def describe(self) -> str:
        return ", ".join(f.expression.to_sparql() for f in self.filters)

    def run(self, rows, ctx):
        decode = ctx.decode
        programs = self.programs
        check = ctx.check
        for row in rows:
            check()
            keep = True
            for program in programs:
                try:
                    if not effective_boolean_value(program(row, decode)):
                        keep = False
                        break
                except ExpressionError:
                    keep = False  # SPARQL: an erroring filter removes the row.
                    break
            if keep:
                yield row


class ValuesBind(PhysicalOp):
    """Join compile-time-encoded VALUES rows against the register file."""

    kind = "ValuesBind"
    __slots__ = ("clause", "cell_slots", "encoded_rows")

    def __init__(self, clause: ValuesClause, cell_slots: tuple[int, ...],
                 encoded_rows: tuple[tuple, ...]):
        self.clause = clause
        self.cell_slots = cell_slots
        self.encoded_rows = encoded_rows

    def describe(self) -> str:
        names = " ".join(v.n3() for v in self.clause.variables_)
        return f"{names}: {len(self.encoded_rows)} rows"

    def run(self, rows, ctx):
        cell_slots = self.cell_slots
        encoded_rows = self.encoded_rows
        check = ctx.check
        for row in rows:
            for value_row in encoded_rows:
                check()
                new = None
                compatible = True
                for slot, value_id in zip(cell_slots, value_row):
                    if value_id is None:  # UNDEF leaves the register as-is.
                        continue
                    current = row[slot] if new is None else new[slot]
                    if current is None:
                        if new is None:
                            new = row.copy()
                        new[slot] = value_id
                    elif current != value_id:
                        compatible = False
                        break
                if compatible:
                    yield row if new is None else new


class BindOp(PhysicalOp):
    """BIND: a register program computes a term and writes a register.

    The computed term is encoded through the execution context — store
    id when the store holds it, plan pseudo id when the plan tabled it
    at compile time, execution-local mint otherwise — so downstream
    joins, MINUS compatibility checks and decode-at-the-boundary all
    keep working on ids.  An erroring expression leaves the register
    exactly as it was (per SPARQL, an erroring BIND leaves the variable
    unbound — or, when an OPTIONAL bound it earlier, untouched).
    """

    kind = "Bind"
    __slots__ = ("bind", "slot", "program")

    def __init__(self, bind: BindClause, slot: int, program):
        self.bind = bind
        self.slot = slot
        self.program = program

    def describe(self) -> str:
        return self.bind.to_sparql()

    def run(self, rows, ctx):
        program = self.program
        slot = self.slot
        decode = ctx.decode
        encode = ctx.encode
        check = ctx.check
        for row in rows:
            check()
            try:
                term = program(row, decode)
            except ExpressionError:
                yield row
                continue
            new = row.copy()
            new[slot] = encode(term)
            yield new


class _BindRebind(PhysicalOp):
    """A BIND whose target variable is already in scope: always an error.

    The interpreter raises the moment the group is evaluated — even with
    zero solutions — so this op raises on first pull rather than per
    row.  It is emitted at compile time when the rebinding is statically
    certain (the variable is bound by the group itself) and substituted
    into the schedule per entry mask when it depends on what the
    incoming row binds.
    """

    kind = "Bind"
    __slots__ = ("bind",)

    def __init__(self, bind: BindClause):
        self.bind = bind

    def describe(self) -> str:
        return f"{self.bind.to_sparql()} — rebinds in-scope variable"

    def run(self, rows, ctx):
        raise QueryEvaluationError(
            f"BIND would rebind in-scope variable {self.bind.variable.n3()}"
        )
        yield  # pragma: no cover — generator protocol; the raise always fires


class SubqueryScan(PhysicalOp):
    """A nested ``{ SELECT ... }`` executed bottom-up and joined like VALUES.

    The inner query compiles to its own plan (plain or fused-aggregate)
    at lowering time; at execution the runner produces its result rows
    once per query (memoized on the context), the cells encode through
    the context codec (minting ids for computed terms such as aggregate
    results), and the encoded rows join against the register file with
    the exact UNDEF-skipping loop :class:`ValuesBind` uses.
    """

    kind = "SubqueryScan"
    __slots__ = ("sub", "runner", "variables", "cell_slots", "inner_root")

    def __init__(self, sub: SubSelect, runner, variables: tuple,
                 cell_slots: tuple[int, ...], inner_root):
        self.sub = sub
        self.runner = runner
        self.variables = variables
        self.cell_slots = cell_slots
        self.inner_root = inner_root

    def children(self):
        if self.inner_root is None:
            return ()
        return (("subquery", self.inner_root),)

    def describe(self) -> str:
        return "SELECT " + " ".join(v.n3() for v in self.variables)

    def encoded_rows(self, ctx) -> tuple[tuple, ...]:
        rows = ctx.op_memo.get(id(self))
        if rows is None:
            out = self.runner(ctx.deadline)
            rows = tuple(
                tuple(None if term is None else ctx.encode(term) for term in row)
                for row in out
            )
            ctx.op_memo[id(self)] = rows
        return rows

    def run(self, rows, ctx):
        cell_slots = self.cell_slots
        encoded_rows = self.encoded_rows(ctx)
        check = ctx.check
        for row in rows:
            for value_row in encoded_rows:
                check()
                new = None
                compatible = True
                for slot, value_id in zip(cell_slots, value_row):
                    if value_id is None:  # an unbound cell leaves the register
                        continue
                    current = row[slot] if new is None else new[slot]
                    if current is None:
                        if new is None:
                            new = row.copy()
                        new[slot] = value_id
                    elif current != value_id:
                        compatible = False
                        break
                if compatible:
                    yield row if new is None else new


class LeftJoin(PhysicalOp):
    """OPTIONAL: per-row left join against an inner group pipeline."""

    kind = "LeftJoin"
    __slots__ = ("optional", "inner")

    def __init__(self, optional: OptionalPattern, inner: "GroupPipeline"):
        self.optional = optional
        self.inner = inner

    def children(self):
        return (("optional", self.inner),)

    def run(self, rows, ctx):
        inner = self.inner
        for row in rows:
            matched = False
            for out in inner.run_row(row, ctx):
                matched = True
                yield out
            if not matched:
                yield row


class UnionOp(PhysicalOp):
    """UNION: per-row evaluation of every branch pipeline, concatenated."""

    kind = "Union"
    __slots__ = ("union", "branches")

    def __init__(self, union: UnionPattern, branches: tuple["GroupPipeline", ...]):
        self.union = union
        self.branches = branches

    def children(self):
        return tuple(
            (f"branch {i + 1}", branch) for i, branch in enumerate(self.branches)
        )

    def run(self, rows, ctx):
        branches = self.branches
        for row in rows:
            for branch in branches:
                yield from branch.run_row(row, ctx)


class ExistsJoin(PhysicalOp):
    """FILTER [NOT] EXISTS as a correlated semi/anti join.

    The inner pipeline sees the outer row (correlated registers probe,
    free ones scan), stops at the first match, and never leaks inner
    bindings — inner steps write to copies.  The row survives when
    matchedness disagrees with negation.
    """

    kind = "Exists"
    __slots__ = ("exists", "inner")

    def __init__(self, exists: ExistsFilter, inner: "GroupPipeline"):
        self.exists = exists
        self.inner = inner

    def children(self):
        return (("exists", self.inner),)

    def describe(self) -> str:
        return "NOT EXISTS" if self.exists.negated else "EXISTS"

    def run(self, rows, ctx):
        inner = self.inner
        negated = self.exists.negated
        check = ctx.check
        for row in rows:
            check()
            matched = False
            for _out in inner.run_row(row, ctx):
                matched = True
                break
            if matched != negated:
                yield row


class MinusJoin(PhysicalOp):
    """MINUS as an anti-join on shared-variable compatibility.

    The right side is uncorrelated (the interpreter evaluates it from an
    empty binding), so it materializes once per execution, memoized on
    the context.  A left row is removed when some right row shares at
    least one bound register with it and agrees on every register both
    sides bind — id equality is term equality because both sides encode
    through the same execution codec.
    """

    kind = "Minus"
    __slots__ = ("minus", "inner", "shared_slots")

    def __init__(self, minus: MinusPattern, inner: "GroupPipeline",
                 shared_slots: tuple[int, ...]):
        self.minus = minus
        self.inner = inner
        self.shared_slots = shared_slots

    def children(self):
        return (("minus", self.inner),)

    def right_rows(self, ctx) -> tuple:
        right = ctx.op_memo.get(id(self))
        if right is None:
            if self.inner.empty:
                self.inner.raise_rebinds([None] * ctx.num_registers)
                right = ()
            else:
                seed = [None] * ctx.num_registers
                right = tuple(self.inner.run_row(seed, ctx))
            ctx.op_memo[id(self)] = right
        return right

    def run(self, rows, ctx):
        right = self.right_rows(ctx)
        shared_slots = self.shared_slots
        check = ctx.check
        for row in rows:
            check()
            removed = False
            for other in right:
                shared = False
                agree = True
                for slot in shared_slots:
                    left_id = row[slot]
                    right_id = other[slot]
                    if left_id is None or right_id is None:
                        continue
                    if left_id != right_id:
                        agree = False
                        break
                    shared = True
                if shared and agree:
                    removed = True
                    break
            if not removed:
                yield row


class PathClosure(PhysicalOp):
    """Property-path evaluation entirely in id space.

    The path AST is compiled to a nested-tuple program over predicate
    ids; closure steps (``+`` / ``*``) run BFS over the POS/OSP integer
    maps with reachability frontiers memoized per execution, so repeated
    expansions from the same node — the common case when a closure sits
    mid-join — are O(1) after the first.  Pair semantics (per-pattern
    deduplication, zero-length closure restricted to path-incident nodes
    when both ends are free, cycle-back-to-start for ``+``) mirror
    :mod:`repro.sparql.paths` exactly.
    """

    kind = "PathClosure"
    __slots__ = ("pattern", "path", "s_const", "s_slot", "o_const", "o_slot")

    def __init__(self, pattern: TriplePattern, path: tuple,
                 s_const, s_slot, o_const, o_slot):
        self.pattern = pattern
        self.path = path
        self.s_const = s_const
        self.s_slot = s_slot
        self.o_const = o_const
        self.o_slot = o_slot

    def describe(self) -> str:
        return self.pattern.to_sparql()

    def run(self, rows, ctx):
        s_const, s_slot = self.s_const, self.s_slot
        o_const, o_slot = self.o_const, self.o_slot
        same_slot = s_slot is not None and s_slot == o_slot
        path = self.path
        check = ctx.check
        for row in rows:
            s = s_const if s_slot is None else row[s_slot]
            o = o_const if o_slot is None else row[o_slot]
            if same_slot and s is None:
                # ``?x path ?x``: enumerate free pairs, keep the diagonal.
                for sid, oid in _path_pairs(ctx, path, None, None):
                    check()
                    if sid == oid:
                        new = row.copy()
                        new[s_slot] = sid
                        yield new
                continue
            bind_s = s_slot is not None and s is None
            bind_o = o_slot is not None and o is None
            for sid, oid in _path_pairs(ctx, path, s, o):
                check()
                if bind_s or bind_o:
                    new = row.copy()
                    if bind_s:
                        new[s_slot] = sid
                    if bind_o:
                        new[o_slot] = oid
                    yield new
                else:
                    yield row


# --------------------------------------------------------------------------
# Id-space path programs
#
# Compiled form: ("iri", pid) | ("inv", sub) | ("alt", (subs...)) |
# ("seq", (subs...)) | ("closure", sub, include_zero, key).  ``key`` is a
# plan-unique integer identifying the closure node in the frontier memo.
# --------------------------------------------------------------------------


def _path_pairs(ctx, path, s, o):
    """Deduplicated (subject id, object id) pairs, like ``eval_path``."""
    seen: set[tuple] = set()
    for pair in _path_eval(ctx, path, s, o):
        if pair not in seen:
            seen.add(pair)
            yield pair


def _path_eval(ctx, node, s, o):
    kind = node[0]
    if kind == "iri":
        pid = node[1]
        index = ctx.index
        if s is not None:
            if o is not None:
                if index.contains(s, pid, o):
                    yield (s, o)
                return
            for oid in index.scan_objects(s, pid):
                yield (s, oid)
            return
        if o is not None:
            for sid in index.scan_subjects(pid, o):
                yield (sid, o)
            return
        yield from index.predicate_pairs(pid)
        return
    if kind == "inv":
        for sid, oid in _path_eval(ctx, node[1], o, s):
            yield (oid, sid)
        return
    if kind == "alt":
        for option in node[1]:
            yield from _path_eval(ctx, option, s, o)
        return
    if kind == "seq":
        yield from _path_sequence(ctx, node[1], s, o)
        return
    # closure
    _tag, step, include_zero, key = node
    if s is not None:
        for target in _reachable_ids(ctx, step, key, s, include_zero, True):
            if o is None or target == o:
                yield (s, target)
        return
    if o is not None:
        for source in _reachable_ids(ctx, step, key, o, include_zero, False):
            yield (source, o)
        return
    # Both ends free: forward BFS from every inner-path subject (and, for
    # zero-length closures, every inner-path object).
    starts: set[int] = set()
    for sid, oid in _path_eval(ctx, step, None, None):
        starts.add(sid)
        if include_zero:
            starts.add(oid)
    for start in starts:
        for target in _reachable_ids(ctx, step, key, start, include_zero, True):
            yield (start, target)


def _reachable_ids(ctx, step, key, start, include_zero, forward):
    """BFS closure over ids, memoized per execution.

    The deadline is checked once per *edge* scanned (not just per
    frontier hop), so an adversarially deep or bushy hierarchy cannot
    run far past its budget between checks.
    """
    memo_key = (key, start, include_zero, forward)
    cached = ctx.path_memo.get(memo_key)
    if cached is not None:
        return cached
    check = ctx.check
    found: list[int] = [start] if include_zero else []
    seen: set[int] = {start}
    frontier = [start]
    while frontier:
        check()
        node = frontier.pop()
        pairs = (
            _path_eval(ctx, step, node, None)
            if forward else _path_eval(ctx, step, None, node)
        )
        for sid, oid in pairs:
            check()
            neighbor = oid if forward else sid
            if neighbor not in seen:
                seen.add(neighbor)
                found.append(neighbor)
                frontier.append(neighbor)
            elif neighbor == start and not include_zero and start not in found:
                found.append(start)  # cycle back to the start counts for '+'
    ctx.path_memo[memo_key] = found
    return found


def _path_sequence(ctx, steps, s, o):
    if len(steps) == 1:
        yield from _path_eval(ctx, steps[0], s, o)
        return
    check = ctx.check
    if s is not None or o is None:
        head, rest = steps[0], steps[1:]
        for sid, middle in _path_eval(ctx, head, s, None):
            check()
            for _mid, oid in _path_sequence(ctx, rest, middle, o):
                yield (sid, oid)
        return
    # Only the object is bound: traverse backwards to avoid a full scan.
    front, tail = steps[:-1], steps[-1]
    for middle, oid in _path_eval(ctx, tail, None, o):
        check()
        for sid, _mid in _path_sequence(ctx, front, None, middle):
            yield (sid, oid)


# --------------------------------------------------------------------------
# Group pipelines
# --------------------------------------------------------------------------


class GroupPipeline:
    """One WHERE group, lowered: ordered operators + unplaced filters.

    Filter placement replicates the term-space interpreter exactly, and
    there it depends on which variables the *incoming binding* already
    holds — a per-row property for nested groups.  So the pipeline keeps
    its filters aside and :meth:`build_schedule` interleaves them for a
    given entry mask (the set of filter-relevant variables bound on
    entry): ready filters attach after pattern join steps only, and the
    remainder runs at the end of the group.  Schedules are memoized per
    execution, keyed by ``(group id, mask)``.
    """

    __slots__ = ("gid", "values_ops", "pattern_ops", "tail_ops", "filter_units",
                 "relevant_items", "values_vars", "empty_pattern")

    def __init__(self, gid: int, values_ops: tuple, pattern_ops: tuple,
                 tail_ops: tuple, filter_units: tuple,
                 relevant_items: tuple, empty_pattern: TriplePattern | None):
        self.gid = gid
        self.values_ops = values_ops
        self.pattern_ops = pattern_ops
        self.tail_ops = tail_ops
        self.filter_units = filter_units
        self.relevant_items = relevant_items
        self.values_vars = frozenset(
            v
            for op in values_ops
            for v in (
                op.clause.variables_ if isinstance(op, ValuesBind) else op.variables
            )
        )
        self.empty_pattern = empty_pattern

    @property
    def empty(self) -> bool:
        return self.empty_pattern is not None

    def entry_mask(self, row: list) -> frozenset:
        """Which filter-relevant variables the row already binds."""
        if not self.relevant_items:
            return _EMPTY_MASK
        return frozenset(
            variable for variable, slot in self.relevant_items
            if row[slot] is not None
        )

    def build_schedule(self, mask: frozenset) -> tuple:
        """Interleave filters with the operator sequence for one mask.

        Mirrors ``Evaluator._eval_group``: VALUES and subquery joins
        first (no readiness checks), then pattern steps with ready
        filters attached after each, then UNION/OPTIONAL/BIND/EXISTS/
        MINUS operators (no checks — the interpreter only tests
        readiness inside its pattern loop), then every filter still
        pending at the end of the group.

        A :class:`BindOp` whose target variable the entry mask already
        binds is substituted with the always-raising rebind check — the
        interpreter's in-scope test counts the incoming binding's
        variables, which for nested groups is a per-row property.
        """
        ops: list[PhysicalOp] = list(self.values_ops)
        available = set(mask) | self.values_vars
        pending = list(self.filter_units)
        for op, pattern_vars in self.pattern_ops:
            ops.append(op)
            available |= pattern_vars
            if pending:
                ready = [u for u in pending if u.variables <= available]
                if ready:
                    pending = [u for u in pending if u not in ready]
                    ops.append(FilterOp(tuple(ready)))
        for op in self.tail_ops:
            if isinstance(op, BindOp) and op.bind.variable in mask:
                ops.append(_BindRebind(op.bind))
            else:
                ops.append(op)
        if pending:
            ops.append(FilterOp(tuple(pending)))
        return tuple(ops)

    def raise_rebinds(self, row: list) -> None:
        """The rebind error an empty group still owes for ``row``.

        The interpreter checks BIND scope the moment a group is
        evaluated — before it could know the group yields nothing — so a
        group short-circuited at compile time (never-seen constant) must
        still raise for a statically-certain rebind, or for a BIND whose
        target the incoming row already binds.
        """
        for op in self.tail_ops:
            if isinstance(op, _BindRebind) or (
                isinstance(op, BindOp) and row[op.slot] is not None
            ):
                raise QueryEvaluationError(
                    f"BIND would rebind in-scope variable "
                    f"{op.bind.variable.n3()}"
                )

    def run_row(self, row: list, ctx: _ExecContext) -> Iterator[list]:
        """Run the group for one seed row (nested-group entry point)."""
        if self.empty_pattern is not None:
            self.raise_rebinds(row)
            return iter(())
        ops = ctx.schedule(self, self.entry_mask(row))
        return _run_pipeline(ops, iter((row,)), ctx)

    def display_ops(self) -> tuple:
        """A representative schedule (empty entry mask) — for explain."""
        return self.build_schedule(_EMPTY_MASK)


# --------------------------------------------------------------------------
# ORDER BY / LIMIT
# --------------------------------------------------------------------------


class OrderLimit:
    """ORDER BY over solutions, with a bounded top-k heap under LIMIT.

    Operates at the decoded-binding boundary (sort keys are term sort
    keys) and is shared verbatim by the compiled and term-space engines,
    so tie-breaking and error ordering can never diverge between them.
    """

    kind = "OrderLimit"
    __slots__ = ("conditions", "limit")

    def __init__(self, conditions: tuple[OrderCondition, ...],
                 limit: int | None = None):
        self.conditions = conditions
        self.limit = limit

    def describe(self) -> str:
        parts = [
            c.expression.to_sparql() if c.ascending
            else f"DESC({c.expression.to_sparql()})"
            for c in self.conditions
        ]
        detail = ", ".join(parts)
        if self.limit is not None:
            detail += f" (top-{self.limit} heap)"
        return detail

    def apply(self, solutions: list[Binding]) -> list[Binding]:
        conditions = self.conditions

        def sort_key(binding: Binding):
            keys = []
            for condition in conditions:
                try:
                    value = evaluate(condition.expression, binding)
                    key = (1,) + value.sort_key()
                except ExpressionError:
                    key = (0,)
                keys.append(_Directed(key, condition.ascending))
            return keys

        return _sorted_top(solutions, sort_key, self.limit)


def _sorted_top(items: list, sort_key, limit: int | None) -> list:
    """Full sort, or a bounded heap selection when only ``limit`` rows
    survive the subsequent LIMIT slice.

    ``heapq.nsmallest(k, ...)`` is documented equivalent to
    ``sorted(...)[:k]`` — stable, so ties resolve exactly as the full
    sort would.
    """
    if limit is not None and limit < len(items):
        return heapq.nsmallest(limit, items, key=sort_key)
    return sorted(items, key=sort_key)


class _Directed:
    """Comparison wrapper flipping the order for DESC sort keys."""

    __slots__ = ("key", "ascending")

    def __init__(self, key: tuple, ascending: bool):
        self.key = key
        self.ascending = ascending

    def __lt__(self, other: "_Directed") -> bool:
        if self.ascending:
            return self.key < other.key
        return self.key > other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Directed) and self.key == other.key


# --------------------------------------------------------------------------
# Lowering
# --------------------------------------------------------------------------


class _Lowering:
    """Compile-time state: the global slot map and pseudo-id table."""

    def __init__(self, graph, dictionary, index, optimize: bool):
        self.graph = graph
        self.dictionary = dictionary
        self.index = index
        self.optimize = optimize
        self.slots: dict[Variable, int] = {}
        self.num_registers = 0
        self.extra_terms: list[Node] = []
        self._pseudo: dict[Node, int] = {}
        self._closure_count = 0
        self._group_count = 0

    def slot(self, variable: Variable) -> int:
        slot = self.slots.get(variable)
        if slot is None:
            slot = self.num_registers
            self.num_registers += 1
            self.slots[variable] = slot
        return slot

    def temp_slot(self) -> int:
        """A scratch register no variable maps to (repeated occurrences).

        Scratch registers share the one register file but stay out of
        ``slots``, so decode-at-the-boundary never sees them.
        """
        slot = self.num_registers
        self.num_registers += 1
        return slot

    def encode(self, term: Node) -> int:
        """The term's dictionary id, or a plan-local negative pseudo id.

        Pseudo ids are consistent within the plan (the same unseen term
        always maps to the same id), never collide with real ids, and
        decode through the plan's ``extra_terms`` table — so equality on
        ids remains equality on terms even for constants the store has
        never stored.
        """
        term_id = self.dictionary.lookup(term)
        if term_id is not None:
            return term_id
        pseudo = self._pseudo.get(term)
        if pseudo is None:
            pseudo = -1 - len(self.extra_terms)
            self.extra_terms.append(term)
            self._pseudo[term] = pseudo
        return pseudo

    # -- group lowering ----------------------------------------------------

    def lower_group(self, group: GroupGraphPattern, outer_may: set,
                    outer_definite: set) -> GroupPipeline:
        """Lower one group; raises :class:`_Decline` for unsupported shapes.

        ``outer_may`` is every variable that *could* be bound when rows
        enter this group (used to classify scan vs probe and to seed
        nested lowerings); ``outer_definite`` is the subset bound in
        every row (used for join ordering, matching the interpreter's
        per-row ordering on the straight-line path).  Filter placement
        uses neither — it is resolved per entry mask at execution time.
        """
        (values_clauses, subselects, patterns, filters, unions, optionals,
         binds, exists_filters, minus_patterns) = group.partition()

        self._group_count += 1
        gid = self._group_count
        may = set(outer_may)
        definite = set(outer_definite)
        empty_pattern: TriplePattern | None = None

        values_ops = []
        for clause in values_clauses:
            cell_slots = tuple(self.slot(v) for v in clause.variables_)
            encoded = tuple(
                tuple(None if value is None else self.encode(value) for value in row)
                for row in clause.rows
            )
            values_ops.append(ValuesBind(clause, cell_slots, encoded))
            may |= set(clause.variables_)
            # A VALUES variable is definitely bound only when no row
            # leaves it UNDEF (and there is at least one row).
            for position, variable in enumerate(clause.variables_):
                if clause.rows and all(
                    row[position] is not None for row in clause.rows
                ):
                    definite.add(variable)

        for subselect in subselects:
            # Bottom-up, like the interpreter: the inner query runs
            # independently and its rows join like VALUES rows.  A cell
            # can be unbound (a projection that errored), so subquery
            # variables never join `definite`.
            op = self._lower_subselect(subselect)
            values_ops.append(op)
            may |= set(op.variables)

        pattern_ops = []
        if patterns:
            if self.optimize and len(patterns) > 1:
                ordered = order_patterns(self.graph, patterns, bound=definite)
            else:
                ordered = list(patterns)
            for pattern in ordered:
                pattern_vars = frozenset(pattern.variables())
                if isinstance(pattern.p, PropertyPath):
                    op = self._lower_path(pattern)
                else:
                    lowered = self.lower_step(pattern)
                    if lowered is None:
                        # A never-seen constant: this (and only this)
                        # group can produce no rows.
                        empty_pattern = pattern
                    else:
                        step, eqs = lowered
                        cls = NestedProbe if pattern_vars & may else IndexScan
                        op = cls(pattern, step, eqs)
                if empty_pattern is None:
                    pattern_ops.append((op, pattern_vars))
                may |= pattern_vars
                definite |= pattern_vars

        tail_ops = []
        for union in unions:
            branches = tuple(
                self.lower_group(branch, may, definite)
                for branch in union.branches
            )
            tail_ops.append(UnionOp(union, branches))
            for branch in union.branches:
                may |= branch.variables()
            # A UNION variable joins `definite` only when every branch
            # definitely binds it — conservatively skipped.

        for optional in optionals:
            inner = self.lower_group(optional.pattern, may, definite)
            tail_ops.append(LeftJoin(optional, inner))
            may |= optional.pattern.variables()
            # OPTIONAL never extends `definite`: unmatched rows pass
            # through with the inner registers unbound.

        # The interpreter's in-scope set for BIND's rebind check: the
        # variables this group itself binds before BINDs run — VALUES,
        # subqueries, patterns, union branches, earlier BINDs — but NOT
        # OPTIONAL variables (an OPTIONAL-bound variable may be silently
        # overwritten) and not the incoming row's variables, which are a
        # per-row property handled through the entry mask.
        local_available: set[Variable] = set()
        for clause in values_clauses:
            local_available |= set(clause.variables_)
        for op in values_ops:
            if isinstance(op, SubqueryScan):
                local_available |= set(op.variables)
        for pattern in patterns:
            local_available |= pattern.variables()
        for union in unions:
            for branch in union.branches:
                local_available |= branch.variables()

        bind_items: list[tuple[Variable, int]] = []
        for bind in binds:
            slot = self.slot(bind.variable)
            if bind.variable in local_available:
                # Statically certain rebind: raises on every execution,
                # like the interpreter.
                tail_ops.append(_BindRebind(bind))
            else:
                program = compile_expression(bind.expression, self.slots)
                tail_ops.append(BindOp(bind, slot, program))
                bind_items.append((bind.variable, slot))
            local_available.add(bind.variable)
            may.add(bind.variable)

        for exists in exists_filters:
            inner = self.lower_group(exists.pattern, may, definite)
            tail_ops.append(ExistsJoin(exists, inner))
            # EXISTS never extends `may`: inner bindings do not leak.

        for minus in minus_patterns:
            inner = self.lower_group(minus.pattern, set(), set())
            shared = tuple(
                self.slots[v]
                for v in sorted(minus.pattern.variables(), key=lambda v: v.name)
                if v in self.slots
            )
            tail_ops.append(MinusJoin(minus, inner, shared))

        filter_units = tuple(self._filter_unit(c) for c in filters)
        relevant: dict[Variable, int] = {}
        for unit in filter_units:
            for variable, slot in unit.slot_items:
                relevant[variable] = slot
        for variable, slot in bind_items:
            # Entry masks must cover BIND targets: a row that already
            # binds one triggers the per-row rebind error.
            relevant[variable] = slot
        return GroupPipeline(
            gid,
            tuple(values_ops),
            tuple(pattern_ops),
            tuple(tail_ops),
            filter_units,
            tuple(relevant.items()),
            empty_pattern,
        )

    def _filter_unit(self, constraint: Filter) -> _FilterUnit:
        variables = frozenset(constraint.expression.variables())
        slot_items = tuple(
            (variable, self.slots[variable])
            for variable in variables if variable in self.slots
        )
        program = compile_expression(constraint.expression, self.slots)
        return _FilterUnit(constraint, variables, slot_items, program)

    def _lower_subselect(self, subselect: SubSelect) -> SubqueryScan:
        """Compile a nested SELECT to its own plan and a join operator.

        The inner query gets its own register space (it is evaluated
        bottom-up against the whole graph); only its projected variables
        get outer slots.  An inner shape the compiler cannot take
        propagates its decline reason outward.
        """
        runner, variables, inner_root = _compile_subquery(
            self.graph, subselect.query, self.optimize
        )
        cell_slots = tuple(self.slot(v) for v in variables)
        return SubqueryScan(subselect, runner, variables, cell_slots, inner_root)

    def lower_step(self, pattern: TriplePattern) -> tuple[tuple, tuple] | None:
        """``(step, eqs)`` for one triple pattern with a plain predicate.

        The one per-pattern lowering: a dictionary lookup per constant, a
        register per variable (see :class:`_StepOp` for the tuple
        shapes).  Returns None when a constant was never stored —
        nothing can match the pattern.
        """
        positions = []
        pattern_vars: set[Variable] = set()
        eqs = []
        for term in (pattern.s, pattern.p, pattern.o):
            if isinstance(term, Variable):
                if term in pattern_vars:
                    # Repeated occurrence (?x <p> ?x): bind it into a
                    # scratch register; the step's eq check enforces the
                    # intra-pattern join against the canonical slot.
                    scratch = self.temp_slot()
                    eqs.append((self.slots[term], scratch))
                    positions.extend((None, scratch))
                else:
                    pattern_vars.add(term)
                    positions.extend((None, self.slot(term)))
            else:
                term_id = self.dictionary.lookup(term)
                if term_id is None:
                    return None
                positions.extend((term_id, None))
        return tuple(positions), tuple(eqs)

    def _lower_path(self, pattern: TriplePattern) -> PathClosure:
        if isinstance(pattern.s, Variable):
            s_const, s_slot = None, self.slot(pattern.s)
        else:
            s_const, s_slot = self.encode(pattern.s), None
        if isinstance(pattern.o, Variable):
            o_const, o_slot = None, self.slot(pattern.o)
        else:
            o_const, o_slot = self.encode(pattern.o), None
        path = self._compile_path(pattern.p)
        return PathClosure(pattern, path, s_const, s_slot, o_const, o_slot)

    def _compile_path(self, path) -> tuple:
        if isinstance(path, IRI):
            return ("iri", self.encode(path))
        if isinstance(path, InversePath):
            return ("inv", self._compile_path(path.step))
        if isinstance(path, AlternativePath):
            return ("alt", tuple(self._compile_path(o) for o in path.options))
        if isinstance(path, SequencePath):
            return ("seq", tuple(self._compile_path(s) for s in path.steps))
        if isinstance(path, (OneOrMorePath, ZeroOrMorePath)):
            self._closure_count += 1
            return (
                "closure",
                self._compile_path(path.step),
                isinstance(path, ZeroOrMorePath),
                self._closure_count,
            )
        raise _Decline("path-shape")


def _compile_subquery(graph, query, optimize: bool):
    """Compile a nested SELECT; returns ``(runner, variables, inner_root)``.

    ``runner(deadline)`` produces the subquery's result rows (tuples of
    terms / None), replicating ``Evaluator.select`` on the compiled
    tuple path: distinct-then-order for aggregates, order-then-project-
    then-distinct otherwise, OFFSET/LIMIT last.  Raises
    :class:`_Decline` with the inner reason when the inner query cannot
    compile — the subquery then declines as a whole, with the inner
    reason as the outward-visible one.
    """
    top_k = None
    if query.limit is not None:
        top_k = query.limit + (query.offset or 0)
    if query.is_aggregate_query:
        from .aggregator import compile_aggregate_ex

        plan, reason = compile_aggregate_ex(graph, query, optimize=optimize)
        if plan is None:
            raise _Decline(reason)
        variables = tuple(p.variable for p in query.projections)

        def runner(deadline, plan=plan, query=query, variables=variables,
                   top_k=top_k):
            rows, _variables = plan.execute(deadline)
            if query.distinct:
                rows = _distinct_rows(rows)
            if query.order_by:
                rows = _order_rows(rows, variables, query.order_by, top_k)
            return _slice_rows(rows, query)

        return runner, variables, plan.body.root

    plan, reason = compile_where(graph, query.where, optimize=optimize)
    if plan is None:
        raise _Decline(reason)
    variables = tuple(query.output_variables())

    def runner(deadline, plan=plan, query=query, variables=variables,
               top_k=top_k):
        solutions = plan.solutions(deadline)
        if query.order_by:
            # The top-k bound only applies without DISTINCT (which may
            # need solutions beyond the first limit+offset).
            solution_k = None if query.distinct else top_k
            solutions = OrderLimit(query.order_by, solution_k).apply(solutions)
        rows = _project_rows(query, solutions, variables)
        if query.distinct:
            rows = _distinct_rows(rows)
        return _slice_rows(rows, query)

    return runner, variables, plan.root


def _project_rows(query, solutions: list[Binding], variables) -> list[tuple]:
    """Replicates ``Evaluator._project``: errors project to unbound."""
    rows: list[tuple] = []
    if query.select_all:
        for binding in solutions:
            rows.append(tuple(binding.get(v) for v in variables))
        return rows
    for binding in solutions:
        row = []
        for projection in query.projections:
            try:
                row.append(evaluate(projection.expression, binding))
            except ExpressionError:
                row.append(None)
        rows.append(tuple(row))
    return rows


def _order_rows(rows: list[tuple], variables, conditions, limit: int | None):
    """Replicates ``Evaluator._order``: row-level ORDER BY."""
    def sort_key(row: tuple):
        binding = {v: t for v, t in zip(variables, row) if t is not None}
        keys = []
        for condition in conditions:
            try:
                value = evaluate(condition.expression, binding)
                key = (1,) + value.sort_key()
            except ExpressionError:
                key = (0,)
            keys.append(_Directed(key, condition.ascending))
        return keys

    return _sorted_top(rows, sort_key, limit)


def _distinct_rows(rows: list[tuple]) -> list[tuple]:
    seen: set[tuple] = set()
    unique: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            unique.append(row)
    return unique


def _slice_rows(rows: list[tuple], query) -> list[tuple]:
    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def id_backend(graph):
    """The ``(term_dictionary, triple_index)`` behind ``graph``, if any.

    Single-member :class:`~repro.store.dataset.GraphView` wrappers are
    unwrapped; multi-graph unions have no shared id space and return None,
    as does any object that does not expose the id-level API.
    """
    unwrap = getattr(graph, "backing_graph", None)
    if unwrap is not None:
        graph = unwrap()
        if graph is None:
            return None
    dictionary = getattr(graph, "term_dictionary", None)
    index = getattr(graph, "triple_index", None)
    if dictionary is None or index is None:
        return None
    return dictionary, index


def compile_where(graph, where: GroupGraphPattern, optimize: bool = True):
    """Lower a WHERE group onto the physical-operator pipeline.

    Returns ``(plan, None)`` on success or ``(None, reason)`` when the
    group holds a shape the operator set does not take (see the module
    docstring for the decline list).  The reason string is stable: the
    endpoint tallies fallbacks per reason.
    """
    backend = id_backend(graph)
    if backend is None:
        return None, "no-id-backend"
    dictionary, index = backend
    lowering = _Lowering(graph, dictionary, index, optimize)
    try:
        root = lowering.lower_group(where, set(), set())
    except _Decline as decline:
        return None, decline.reason
    plan = WherePlan(
        dictionary, index, lowering.slots, root, tuple(lowering.extra_terms),
        lowering.num_registers, dict(lowering._pseudo),
    )
    return plan, None


class WherePlan:
    """An executable operator pipeline for one WHERE group.

    Immutable after compilation; every execution owns its context
    (decode memo, path-frontier memo, filter schedules).
    """

    __slots__ = ("dictionary", "index", "slots", "root", "extra_terms",
                 "slot_items", "empty", "num_registers", "pseudo_ids")

    def __init__(self, dictionary, index, slots, root: GroupPipeline, extra_terms,
                 num_registers: int | None = None, pseudo_ids: dict | None = None):
        self.dictionary = dictionary
        self.index = index
        self.slots = slots
        self.root = root
        self.extra_terms = extra_terms
        self.slot_items = tuple(slots.items())
        self.empty = root.empty
        # Scratch registers (repeated variables) live past len(slots).
        self.num_registers = len(slots) if num_registers is None else num_registers
        # term → compile-time pseudo id; runtime minting (BIND results,
        # subquery cells) consults this first so ids stay consistent.
        self.pseudo_ids = {} if pseudo_ids is None else pseudo_ids

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def decode(self, term_id: int) -> Node:
        if term_id < 0:
            return self.extra_terms[-1 - term_id]
        return self.dictionary.decode(term_id)

    def _seed(self) -> list:
        return [None] * self.num_registers

    def solutions(self, deadline) -> list[Binding]:
        """Run the pipeline eagerly, stage by stage; decoded bindings out."""
        if self.empty:
            self.root.raise_rebinds(self._seed())
            return []
        ctx = _ExecContext(self, deadline)
        rows: Iterable[list] = [self._seed()]
        ops = ctx.schedule(self.root, _EMPTY_MASK)
        for position, op in enumerate(ops):
            rows = list(op.run(rows, ctx))
            if not rows:
                # Lazy chaining still *starts* downstream generators on
                # an empty stream; preserve the always-raising rebind
                # check across this eager early exit.
                for tail in ops[position + 1:]:
                    if isinstance(tail, _BindRebind):
                        next(tail.run(iter(()), ctx), None)
                return []
        decode = ctx.decode
        slot_items = self.slot_items
        out: list[Binding] = []
        append = out.append
        for row in rows:
            binding: Binding = {}
            for variable, slot in slot_items:
                term_id = row[slot]
                if term_id is not None:
                    binding[variable] = decode(term_id)
            append(binding)
        return out

    def rows_stream(self, deadline, ctx: "_ExecContext | None" = None):
        """Lazily chained raw-row iterator plus its execution context.

        Used by consumers that fold rows without materializing solutions
        (aggregation) or that stop at the first row (ASK).  Callers that
        need the context *before* iterating — e.g. the aggregator, whose
        decode state must see ids minted during the run — pass their own.
        """
        if ctx is None:
            ctx = _ExecContext(self, deadline)
        if self.empty:
            self.root.raise_rebinds(self._seed())
            return iter(()), ctx
        ops = ctx.schedule(self.root, _EMPTY_MASK)
        return _run_pipeline(ops, iter((self._seed(),)), ctx), ctx

    def any(self, deadline) -> bool:
        """Whether the pipeline produces at least one row (lazy)."""
        rows, _ctx = self.rows_stream(deadline)
        for _row in rows:
            return True
        return False

    def __repr__(self) -> str:
        state = (
            "empty" if self.empty
            else f"group of {len(self.root.pattern_ops)} steps"
        )
        return f"<WherePlan {state}, {len(self.slots)} registers>"
