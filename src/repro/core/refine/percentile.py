"""Example-driven percentile subset refinement (Problem 2b / Section 6.2).

Complementary to Top-K: instead of extreme values, identify the percentile
band of the aggregate distribution in which the example sits and restrict
the query to that band.  For each (measure, aggregate) column the
aggregate values are split at configurable percentile cut points (90th,
75th, 50th, 25th by default); each band containing at least one
example-matching tuple — and strictly fewer tuples than the full result —
yields one refinement with a pair of HAVING bounds.  Unlike Top-K's fixed
two per column, the number of proposals "depends on how the query results
are clustered" (Section 7.1), which the Fig. 9b benchmark shows.
"""

from __future__ import annotations

import numpy as np

from ...rdf.terms import Literal, XSD_DOUBLE
from ...sparql.ast import BoolOp, Comparison, Expression, TermExpr
from ...sparql.builder import agg
from ...sparql.results import ResultSet
from ..describe import describe_percentile
from ..olap_query import OLAPQuery
from .base import Refinement, RefinementMethod, anchor_rows, measure_columns

__all__ = ["Percentile"]

DEFAULT_CUTS = (25, 50, 75, 90)


class Percentile(RefinementMethod):
    """The Perc operator: percentile-band filters anchored to the example."""

    name = "percentile"

    def __init__(self, cuts: tuple[int, ...] = DEFAULT_CUTS):
        if any(not 0 < c < 100 for c in cuts):
            raise ValueError("percentile cut points must be in (0, 100)")
        self.cuts = tuple(sorted(set(cuts)))

    def propose(self, query: OLAPQuery, results: ResultSet) -> list[Refinement]:
        matching = anchor_rows(query, results)
        if not matching or len(results) < 2:
            return []
        columns, values = measure_columns(query, results, float("nan"))
        cut_values = _percentiles(values, self.cuts)  # a row per column
        # in_band[j, i, b]: row i of column j is neither below band b's low cut
        # nor at or above its high one.  Comparisons with NaN are false, so a
        # NaN cut excludes no row and a NaN value falls in every band.
        in_band = np.ones(values.shape + (len(self.cuts) + 1,), dtype=bool)
        in_band[..., 1:] &= ~(values[..., None] < cut_values[:, None])
        in_band[..., :-1] &= ~(values[..., None] >= cut_values[:, None])
        sizes = in_band.sum(axis=1).tolist()
        anchored = in_band[:, matching].any(axis=1).tolist()
        pcts = [None, *self.cuts, None]
        proposals: list[Refinement] = []
        for j, (measure, func, _) in enumerate(columns):
            bounds = [None, *cut_values[j], None]  # None bounds are open
            bands = zip(bounds, bounds[1:], pcts, pcts[1:])
            for b, (low, high, low_pct, high_pct) in enumerate(bands):
                if not 0 < sizes[j][b] < len(results) or not anchored[j][b]:
                    continue
                aggregate_label = f"{func}({measure.label})"
                constraint = _band_constraint(measure, func, low, high)
                refined = query.with_having(
                    (constraint,),
                    describe_percentile(query, low_pct, high_pct, aggregate_label),
                )
                band_text = _band_text(low_pct, high_pct)
                proposals.append(
                    Refinement(
                        query=refined,
                        kind=self.name,
                        explanation=(
                            f"keep results with {aggregate_label} {band_text} "
                            f"({sizes[j][b]} of {len(results)} tuples)"
                        ),
                    )
                )
        return proposals


def _percentiles(values: np.ndarray, cuts: tuple[int, ...]) -> np.ndarray:
    """``np.percentile``'s linear interpolation per row, exact at ±INF.

    numpy's interpolation formula turns an infinite neighbour into NaN
    even where the answer is defined (the median of [-INF, 5, INF] is 5).
    Those cells are recomputed on the extended reals: a cut that lands on
    an order statistic is that statistic, an infinite neighbour absorbs
    any fraction of the way toward it, and between -INF and +INF the
    nearer one is taken.  A row holding NaN keeps its NaN cuts.
    """
    with np.errstate(invalid="ignore"):
        linear = np.percentile(values, cuts, axis=1).T
    broken = np.isnan(linear) & ~np.isnan(values).any(axis=1)[:, None]
    if not broken.any():
        return linear
    ordered = np.sort(values, axis=1)
    position = np.array(cuts) / 100 * (values.shape[1] - 1)
    low = np.floor(position).astype(np.int64)
    high = np.minimum(low + 1, values.shape[1] - 1)
    fraction = position - low
    below, above = ordered[:, low], ordered[:, high]
    keep_low = (fraction == 0) | (np.isinf(below) & (~np.isinf(above) | (fraction < 0.5)))
    return np.where(broken, np.where(keep_low, below, above), linear)


def _band_constraint(measure, func: str, low: float | None, high: float | None) -> Expression:
    parts: list[Expression] = []
    aggregate = agg(func, measure.variable)
    if low is not None:
        parts.append(Comparison(">=", aggregate, TermExpr(_literal(low))))
    if high is not None:
        parts.append(Comparison("<", aggregate, TermExpr(_literal(high))))
    if len(parts) == 1:
        return parts[0]
    return BoolOp("&&", tuple(parts))


def _band_text(low_pct: int | None, high_pct: int | None) -> str:
    if low_pct is None:
        return f"below the {high_pct}th percentile"
    if high_pct is None:
        return f"above the {low_pct}th percentile"
    return f"between the {low_pct}th and {high_pct}th percentiles"


def _literal(value: float) -> Literal:
    return Literal(repr(float(value)), datatype=XSD_DOUBLE)
