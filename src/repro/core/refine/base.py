"""Common types for the ExRef refinement suite (Section 6).

Every refinement method takes the current :class:`OLAPQuery` together with
its executed results and returns a list of :class:`Refinement` proposals —
each a new query guaranteed to still contain some tuple matching the
user's original example (the containment requirement of Problem 2), plus
the human-readable explanation the paper's solution criteria call for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...sparql.results import ResultSet
from ...store.index import MALFORMED, NOT_NUMERIC, numeric_of
from ..olap_query import OLAPQuery

__all__ = ["Refinement", "RefinementMethod", "anchor_rows", "measure_columns"]


@dataclass(frozen=True)
class Refinement:
    """One proposed refinement: the refined query and its explanation."""

    query: OLAPQuery
    kind: str
    explanation: str

    def __repr__(self) -> str:
        return f"<Refinement {self.kind}: {self.explanation}>"


class RefinementMethod:
    """Interface of a refinement operator (Dis / TopK / Perc / Sim)."""

    #: Short identifier used in session menus and benchmark tables.
    name: str = "abstract"

    def propose(self, query: OLAPQuery, results: ResultSet) -> list[Refinement]:
        """Refinement proposals for ``query`` given its results."""
        raise NotImplementedError


def anchor_rows(query: OLAPQuery, results: ResultSet) -> list[int]:
    """Indexes of result rows matching the query's example anchors."""
    return query.anchor_row_indexes(results)


def measure_columns(
    query: OLAPQuery, results: ResultSet, default: float
) -> tuple[list[tuple], np.ndarray]:
    """Every (measure, aggregate) column of ``results``, each read once.

    Returns the ``(measure, aggregate function, column index)`` of each
    column and a float64 matrix with one row per column: numeric literals
    read as their value, every other cell — a NaN or malformed number
    too — as ``default``.  Each distinct cell term is read once.
    """
    columns = [
        (measure, func, results.index_of(alias))
        for measure in query.measures for func, alias in measure.aliases()
    ]
    cells = [[row[index] for row in results.rows] for _, _, index in columns]
    read = {term: default for column in cells for term in column}
    for term in read:
        value = numeric_of(term)
        if value is not NOT_NUMERIC and value is not MALFORMED:
            read[term] = value
    values = np.array([[read[term] for term in column] for column in cells],
                      dtype=np.float64)
    return columns, values
