"""Insight extraction over query results.

The user study (Section 7.2) found two recurring information needs:
computing max/min values within groupings, and situating known entities
against context.  The related work the paper positions against (Spade,
Dagger, top-k insight extraction) scores aggregates by statistical
peculiarity.  This module provides those capabilities over an executed
OLAP query's results:

* :func:`column_statistics` — the moments of an aggregate column
  (mean, standard deviation, skewness);
* :func:`outlier_rows` — rows whose aggregate value deviates by more than
  ``z`` standard deviations;
* :func:`anchor_position` — where the user's example sits in the
  distribution (rank, percentile, z-score), powering messages like
  "Germany is 2.1σ above the mean SUM(Num Applicants)";
* :func:`insight_summary` — the per-aggregate digest of all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rdf.terms import Literal
from ..sparql.results import ResultSet
from .olap_query import OLAPQuery

__all__ = [
    "ColumnStatistics",
    "AnchorPosition",
    "column_statistics",
    "outlier_rows",
    "anchor_position",
    "insight_summary",
]


@dataclass(frozen=True)
class ColumnStatistics:
    """Distribution summary of one aggregate column."""

    column: str
    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    skewness: float

    @property
    def is_skewed(self) -> bool:
        """Right/left-skewed beyond the usual |skew| > 1 rule of thumb."""
        return abs(self.skewness) > 1.0


@dataclass(frozen=True)
class AnchorPosition:
    """Where the example's value sits in the aggregate distribution."""

    column: str
    value: float
    rank: int  # 1 = largest
    percentile: float
    z_score: float

    def describe(self, keyword: str) -> str:
        direction = "above" if self.z_score >= 0 else "below"
        return (
            f"{keyword} ranks #{self.rank} on {self.column} "
            f"({_ordinal(round(self.percentile))} percentile, "
            f"{abs(self.z_score):.1f}σ {direction} the mean)"
        )


def _ordinal(value: int) -> str:
    if 10 <= value % 100 <= 20:
        suffix = "th"
    else:
        suffix = {1: "st", 2: "nd", 3: "rd"}.get(value % 10, "th")
    return f"{value}{suffix}"


def _column_values(results: ResultSet, column: str) -> np.ndarray:
    values = []
    index = results.index_of(column)
    for row in results.rows:
        term = row[index]
        if isinstance(term, Literal) and term.is_numeric:
            values.append(term.numeric_value())
    return np.array(values, dtype=float)


def _skewness(values: np.ndarray) -> float:
    """Biased Fisher–Pearson sample skewness, ``m3 / m2**1.5``.

    0.0 below three values; NaN when the values are constant up to
    rounding, where the ratio is undefined (``is_skewed`` is then False).
    """
    if values.size < 3:
        return 0.0
    mean = values.mean()
    deviations = values - mean
    m2 = float(np.mean(deviations**2))
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return float("nan")
    return float(np.mean(deviations**3)) / m2**1.5


def column_statistics(results: ResultSet, column: str) -> ColumnStatistics:
    """Moments of one numeric result column.

    Raises :class:`ValueError` when the column holds no numeric values.
    """
    values = _column_values(results, column)
    if values.size == 0:
        raise ValueError(f"column {column!r} holds no numeric values")
    return ColumnStatistics(
        column=column,
        count=int(values.size),
        mean=float(values.mean()),
        std=float(values.std()),
        minimum=float(values.min()),
        maximum=float(values.max()),
        skewness=_skewness(values),
    )


def outlier_rows(results: ResultSet, column: str, z: float = 2.0) -> list[int]:
    """Indexes of rows whose ``column`` value is a |z|-score outlier."""
    if z <= 0:
        raise ValueError("z must be positive")
    index = results.index_of(column)
    values = _column_values(results, column)
    if values.size < 3 or values.std() == 0:
        return []
    mean, std = values.mean(), values.std()
    outliers = []
    for row_index, row in enumerate(results.rows):
        term = row[index]
        if isinstance(term, Literal) and term.is_numeric:
            if abs(term.numeric_value() - mean) > z * std:
                outliers.append(row_index)
    return outliers


def anchor_position(
    query: OLAPQuery, results: ResultSet, column: str
) -> AnchorPosition | None:
    """The example's standing in one aggregate column.

    Uses the first anchor-matching row; returns None when the example does
    not appear in the results or the column is non-numeric there.
    """
    matches = query.anchor_row_indexes(results)
    if not matches or len(matches) == len(results.rows):
        return None
    index = results.index_of(column)
    term = results.rows[matches[0]][index]
    if not (isinstance(term, Literal) and term.is_numeric):
        return None
    value = term.numeric_value()
    values = _column_values(results, column)
    rank = int((values > value).sum()) + 1
    percentile = float((values <= value).mean() * 100)
    z_score = float((value - values.mean()) / values.std()) if values.std() else 0.0
    return AnchorPosition(
        column=column, value=value, rank=rank, percentile=percentile, z_score=z_score
    )


def insight_summary(query: OLAPQuery, results: ResultSet) -> list[str]:
    """Human-readable insights over every aggregate column.

    One line per notable fact: skewed distributions, outlier counts, and
    the example's standing.  Empty when the results carry no signal.
    """
    if not results:
        return []
    insights: list[str] = []
    keyword = ", ".join(sorted({a.keyword for a in query.anchors})) or "the example"
    for measure in query.measures:
        for _func, alias in measure.aliases():
            name = alias.name
            try:
                column_stats = column_statistics(results, name)
            except (KeyError, ValueError):
                continue
            if column_stats.is_skewed:
                side = "right" if column_stats.skewness > 0 else "left"
                insights.append(
                    f"{name} is strongly {side}-skewed "
                    f"(skewness {column_stats.skewness:.1f})"
                )
            outliers = outlier_rows(results, name)
            if outliers:
                insights.append(
                    f"{name} has {len(outliers)} outlier tuple(s) beyond 2σ"
                )
            position = anchor_position(query, results, name)
            if position is not None and abs(position.z_score) >= 1.0:
                insights.append(position.describe(keyword))
    return insights
