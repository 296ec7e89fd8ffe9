"""REOLAP: reverse engineering OLAP queries from examples (Algorithm 1).

Given an example tuple of literals — e.g. ``("Germany", "2014")`` — the
algorithm:

1. resolves every component to its interpretations (dimension members at
   specific virtual-graph levels, :mod:`~repro.core.matching`);
2. enumerates the cartesian product of interpretations across components,
   discarding contradictory combinations (two components forced into the
   same grouping variable with different members, or into the same
   dimension at different levels);
3. generates one candidate query per surviving combination via
   :func:`get_query` — grouping at exactly the matched levels
   (the minimality criterion: ``D(Q(G)) = D(T_E)``), aggregating every
   measure with all four functions;
4. optionally validates each candidate to return a non-empty result
   (Section 5.3's correctness guarantee).

The output is deterministic and complete over the discovered
interpretations: every valid combination yields exactly one query.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import FAULT_ERRORS, SynthesisError
from ..rdf.namespace import RDF
from ..sparql.ast import AskQuery
from ..sparql.builder import ask, path, var
from ..store.endpoint import Endpoint
from .describe import describe_query
from .matching import Interpretation, find_interpretations
from .olap_query import Anchor, MeasureColumn, OLAPQuery, QueryDimension
from .virtual_graph import VirtualSchemaGraph

__all__ = ["reolap", "reolap_multi", "get_query", "SynthesisReport"]

#: Hard cap on interpretation combinations; the paper notes the space is
#: exponential in the input size but small in practice (Section 5.3).
MAX_COMBINATIONS = 10_000


@dataclass
class SynthesisReport:
    """Diagnostics of one REOLAP run, used by the Fig. 7 benchmarks.

    ``degraded`` is the explicit partial-answer marker of the resilience
    contract: when endpoint faults struck mid-run under ``degrade=True``,
    the returned candidates are a *subset* of the fault-free answer — the
    affected candidates were dropped, never guessed.  ``probe_failures``
    counts validation probes lost to faults and ``failed_keywords`` the
    example components whose interpretation lookup failed outright.
    """

    keyword_interpretations: dict[str, int] = field(default_factory=dict)
    combinations_considered: int = 0
    combinations_invalid: int = 0
    candidates_empty: int = 0
    degraded: bool = False
    probe_failures: int = 0
    failed_keywords: list[str] = field(default_factory=list)

    @property
    def total_interpretations(self) -> int:
        return sum(self.keyword_interpretations.values())


def reolap(
    endpoint: Endpoint,
    vgraph: VirtualSchemaGraph,
    example: tuple[str, ...],
    validate: bool = True,
    report: SynthesisReport | None = None,
    degrade: bool = False,
) -> list[OLAPQuery]:
    """Reverse-engineer the candidate OLAP queries for an example tuple.

    Raises :class:`SynthesisError` when the example is empty or no
    component matches anything in the KG.  Returns an empty list when
    components match individually but no combination is consistent.

    With ``degrade=True`` endpoint faults (transient errors, timeouts —
    :data:`repro.errors.FAULT_ERRORS`) no longer abort the run: a failed
    validation probe drops just that candidate, a failed keyword lookup
    empties the synthesis, and ``report.degraded`` flags the partial
    answer.  The degraded result is always a subset of the fault-free one.
    """
    if not example:
        raise SynthesisError("the example tuple must contain at least one value")
    report = report if report is not None else SynthesisReport()

    per_component: list[list[Interpretation]] = []
    for keyword in example:
        try:
            interpretations = find_interpretations(
                endpoint, vgraph, keyword, validate=validate
            )
        except FAULT_ERRORS:
            if not degrade:
                raise
            # Without this component's interpretations no combination can
            # be enumerated; [] is the only sound partial answer.
            report.degraded = True
            report.failed_keywords.append(keyword)
            report.keyword_interpretations[keyword] = 0
            return []
        report.keyword_interpretations[keyword] = len(interpretations)
        if not interpretations:
            raise SynthesisError(
                f"no dimension member matches the example value {keyword!r}"
            )
        per_component.append(interpretations)

    queries: list[OLAPQuery] = []
    seen_signatures: set[tuple] = set()
    for combination in itertools.product(*per_component):
        report.combinations_considered += 1
        if report.combinations_considered > MAX_COMBINATIONS:
            raise SynthesisError(
                f"interpretation space exceeds {MAX_COMBINATIONS} combinations; "
                "provide more specific example values"
            )
        if not _consistent(combination):
            report.combinations_invalid += 1
            continue
        # Two combinations grouping the same levels with the same members
        # produce the same query; emit it once.
        signature = tuple(sorted((i.level.path, i.member) for i in combination))
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        queries.append(get_query(vgraph, combination))
    if validate:
        queries = _validate_candidates(endpoint, queries, report, degrade=degrade)
    return queries


def _validate_candidates(
    endpoint, queries: list[OLAPQuery], report: SynthesisReport,
    degrade: bool = False,
) -> list[OLAPQuery]:
    """Keep the candidates whose query is non-empty (Section 5.3).

    A candidate without HAVING is non-empty exactly when an ASK over its
    WHERE clause holds; those ASKs go out in one
    :meth:`~repro.store.Endpoint.ask_batch` call, one plain ASK each with
    its own timeout budget and cache entry.  A candidate with HAVING, and
    every candidate of a round that failed, is probed on its own through
    :meth:`~repro.store.Endpoint.is_non_empty`.

    With ``degrade=True`` a probe that fails with an endpoint fault drops
    its candidate and is counted in ``report.probe_failures`` — never kept
    on a guess — so the surviving set is a subset of the fault-free one.
    """
    selects = [query.to_select() for query in queries]
    verdicts: list[bool | None] = [None] * len(selects)
    plain = [index for index, select in enumerate(selects) if not select.having]
    if plain:
        try:
            answers = endpoint.ask_batch(
                [AskQuery(selects[index].where) for index in plain])
        except FAULT_ERRORS:
            if not degrade:
                raise
            report.degraded = True
        else:
            for index, answer in zip(plain, answers):
                verdicts[index] = answer
    kept = []
    for query, select, verdict in zip(queries, selects, verdicts):
        if verdict is None:
            try:
                verdict = endpoint.is_non_empty(select)
            except FAULT_ERRORS:
                if not degrade:
                    raise
                report.degraded = True
                report.probe_failures += 1
                continue
        if verdict:
            kept.append(query)
        else:
            report.candidates_empty += 1
    return kept


def reolap_multi(
    endpoint: Endpoint,
    vgraph: VirtualSchemaGraph,
    examples: list[tuple[str, ...]],
    validate: bool = True,
) -> list[OLAPQuery]:
    """REOLAP over *multiple* example tuples (the paper's footnote 3).

    All tuples must have the same arity; each column must admit a common
    (dimension, level) reading across every tuple — e.g. the column
    holding ``"Germany"`` and ``"France"`` reads as Country of Destination
    for both rows or for neither.  A candidate survives validation only if
    *every* example tuple's member combination co-occurs in at least one
    observation, so the containment ``T_E ⊑ T`` holds for the whole set.
    """
    if not examples:
        raise SynthesisError("provide at least one example tuple")
    arity = len(examples[0])
    if arity == 0:
        raise SynthesisError("example tuples must contain at least one value")
    if any(len(example) != arity for example in examples):
        raise SynthesisError("all example tuples must have the same arity")
    if len(examples) == 1:
        return reolap(endpoint, vgraph, examples[0], validate=validate)

    # Per column: level path -> per-row interpretation, kept only when
    # every row of the column admits that level.
    column_options: list[dict[tuple, list[Interpretation]]] = []
    for column in range(arity):
        per_row: list[dict[tuple, Interpretation]] = []
        for example in examples:
            interpretations = find_interpretations(
                endpoint, vgraph, example[column], validate=validate
            )
            if not interpretations:
                raise SynthesisError(
                    f"no dimension member matches the example value {example[column]!r}"
                )
            per_row.append({i.level.path: i for i in interpretations})
        common_paths = set(per_row[0])
        for options in per_row[1:]:
            common_paths &= set(options)
        if not common_paths:
            raise SynthesisError(
                f"column {column} has no level shared by all example tuples"
            )
        column_options.append(
            {path: [options[path] for options in per_row] for path in sorted(common_paths)}
        )

    queries: list[OLAPQuery] = []
    seen_signatures: set[tuple] = set()
    for paths in itertools.product(*column_options):
        rows = [
            tuple(column_options[column][paths[column]][row] for column in range(arity))
            for row in range(len(examples))
        ]
        if not all(_consistent(row) for row in rows):
            continue
        signature = tuple(sorted(paths))
        if signature in seen_signatures:
            continue
        seen_signatures.add(signature)
        query = get_query(vgraph, rows[0])
        anchors = tuple(
            Anchor(level=i.level, member=i.member, keyword=i.keyword, group=row_index)
            for row_index, row in enumerate(rows)
            for i in row
        )
        query = query.with_anchors(anchors)
        if validate and not _all_tuples_cooccur(endpoint, vgraph, rows):
            continue
        query = query.described(describe_query(query))
        queries.append(query)
    return queries


def _all_tuples_cooccur(endpoint, vgraph, rows) -> bool:
    """Every example tuple's members reach one common observation."""
    obs = var("o")
    for row in rows:
        patterns = [(obs, RDF.type, vgraph.observation_class)]
        for interpretation in row:
            patterns.append((obs, path(*interpretation.level.path),
                             interpretation.member))
        if not endpoint.ask(ask(*patterns)):
            return False
    return True


def _consistent(combination: tuple[Interpretation, ...]) -> bool:
    """Whether a combination can coexist in one GROUP BY query.

    Components may share a level (two countries of destination are two
    rows of the same grouping), but two components in the same dimension
    at *different* levels would make the grouping ambiguous — the paper's
    example never mixes e.g. a month and a year of the same dimension.
    """
    by_dimension: dict = {}
    for interpretation in combination:
        level = interpretation.level
        existing = by_dimension.setdefault(level.dimension_predicate, level)
        if existing.path != level.path:
            return False
    return True


def get_query(
    vgraph: VirtualSchemaGraph, combination: tuple[Interpretation, ...]
) -> OLAPQuery:
    """Build the candidate query for one interpretation combination.

    This is the paper's GetQuery: one grouping dimension per distinct
    matched level (minimality), all measures aggregated with SUM / MIN /
    MAX / AVG, and the matched members recorded as anchors.
    """
    levels = []
    seen_paths = set()
    for interpretation in combination:
        if interpretation.level.path not in seen_paths:
            seen_paths.add(interpretation.level.path)
            levels.append(interpretation.level)
    levels.sort(key=lambda lvl: tuple(p.value for p in lvl.path))
    dimensions = tuple(QueryDimension(level) for level in levels)
    measures = tuple(
        MeasureColumn(predicate, label)
        for predicate, label in sorted(vgraph.measures.items(), key=lambda kv: kv[0].value)
    )
    anchors = tuple(
        Anchor(level=i.level, member=i.member, keyword=i.keyword) for i in combination
    )
    query = OLAPQuery(
        observation_class=vgraph.observation_class,
        dimensions=dimensions,
        measures=measures,
        anchors=anchors,
    )
    return query.described(describe_query(query))
