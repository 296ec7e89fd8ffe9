"""Example-driven Top-K subset refinement (Problem 2b / Section 6.2).

For every (measure, aggregate) column and both orderings, walk the result
rows in order until reaching a tuple ``t_i`` that matches the user example
and whose successor ``t_{i+1}`` does not; the value of the aggregate at
``t_{i+1}`` becomes a HAVING threshold that keeps ``t_i`` (and everything
ranked above it) and excludes ``t_{i+1}`` — i.e. the result is "the top-k
with k = i+1" and is guaranteed to contain the example.  Two refinements
(ascending / descending) are produced per measure and aggregation
function, the fixed output count reported in Figure 9b.
"""

from __future__ import annotations

import numpy as np

from ...rdf.terms import Literal
from ...sparql.ast import Comparison, TermExpr
from ...sparql.builder import agg
from ...sparql.results import ResultSet
from ..describe import describe_topk
from ..olap_query import OLAPQuery
from .base import Refinement, RefinementMethod, anchor_rows, measure_columns

__all__ = ["TopK"]


class TopK(RefinementMethod):
    """The TopK operator: threshold filters anchored to the example."""

    name = "topk"

    def propose(self, query: OLAPQuery, results: ResultSet) -> list[Refinement]:
        matching = anchor_rows(query, results)
        if not matching or len(results) < 2:
            return []
        is_match = np.zeros(len(results), dtype=bool)
        is_match[matching] = True
        columns, values = measure_columns(query, results, float("-inf"))
        # Descending then ascending order of every column, from one stable
        # argsort: equal values keep row order.
        orders = np.argsort(np.concatenate((-values, values)), axis=1, kind="stable")
        in_order = is_match[orders]
        edges = in_order[:, :-1] > in_order[:, 1:]  # t_i matches, t_{i+1} does not
        cuts = (edges.argmax(axis=1) + 1).tolist()  # index into the order of t_{i+1}
        found = edges.any(axis=1).tolist()
        proposals: list[Refinement] = []
        for j, (measure, func, index) in enumerate(columns):
            for descending, row in ((True, j), (False, len(columns) + j)):
                # Without an example row right before a non-example row (the
                # example rows close the order) no subset smaller than T
                # contains the example.
                if not found[row]:
                    continue
                proposal = self._threshold_proposal(
                    query, results, measure, func, index,
                    values[j], orders[row], cuts[row], descending,
                )
                if proposal is not None:
                    proposals.append(proposal)
        return proposals

    def _threshold_proposal(
        self, query, results, measure, func, index, values, order, cut, descending,
    ) -> Refinement | None:
        threshold = results.rows[order[cut]][index]
        if not isinstance(threshold, Literal):
            return None
        if values[order[cut]] == values[order[cut - 1]]:
            return None  # tie: no threshold separates t_i from t_{i+1}
        op = ">" if descending else "<"
        constraint = Comparison(op, agg(func, measure.variable), TermExpr(threshold))
        k = cut
        aggregate_label = f"{func}({measure.label})"
        refined = query.with_having(
            (constraint,),
            describe_topk(query, k, aggregate_label, descending),
        )
        direction = "highest" if descending else "lowest"
        return Refinement(
            query=refined,
            kind=self.name,
            explanation=(
                f"keep the top-{k} ({direction}) results by {aggregate_label}: "
                f"filter {aggregate_label} {op} {threshold.lexical}"
            ),
        )
