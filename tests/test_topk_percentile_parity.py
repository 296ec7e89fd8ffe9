"""Top-K and Percentile propose exactly what their per-row versions did.

Both operators now read each (measure, aggregate) column once as a float64
array.  The oracles below are the per-row code they replaced: Top-K from two
``sorted(..., key=lambda)`` walks (``reverse=True`` keeps equal values in
row order), Percentile from per-value band comprehensions.  On random
columns with ties, infinities and non-numeric cells, every proposal's HAVING
constant, its ``k`` and its explanation must be the same.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Percentile, TopK
from repro.core.refine.percentile import _band_constraint, _band_text
from repro.rdf import IRI, Literal
from repro.rdf.terms import XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.sparql.ast import Comparison, TermExpr
from repro.sparql.builder import agg

from tests.test_similarity_rank import MEASURE, MEMBERS, cube_query, result_set


def number(term, default):
    return term.numeric_value() if isinstance(term, Literal) and term.is_numeric else default


def topk_oracle(query, results):
    """(HAVING constraint, explanation) per proposal, from per-row sorting."""
    matching = set(query.anchor_row_indexes(results))
    if not matching or len(results) < 2:
        return []
    out = []
    for func, alias in MEASURE.aliases():
        column = results.index_of(alias)
        value = lambda i: number(results.rows[i][column], float("-inf"))  # noqa: E731
        for descending in (True, False):
            order = sorted(range(len(results)), key=value, reverse=descending)
            cut = next((p + 1 for p in range(len(order) - 1)
                        if order[p] in matching and order[p + 1] not in matching), None)
            if cut is None:
                continue
            threshold = results.rows[order[cut]][column]
            if not isinstance(threshold, Literal):
                continue
            if value(order[cut]) == value(order[cut - 1]):
                continue
            op = ">" if descending else "<"
            label = f"{func}(num)"
            direction = "highest" if descending else "lowest"
            out.append((
                Comparison(op, agg(func, MEASURE.variable), TermExpr(threshold)),
                f"keep the top-{cut} ({direction}) results by {label}: "
                f"filter {label} {op} {threshold.lexical}",
            ))
    return out


def percentile_cut(values, pct):
    """Linear-interpolation percentile on the extended reals, per value.

    numpy's own interpolation where both neighbours are finite; at an
    infinite neighbour the order statistic the cut lands on, else the
    infinity (the nearer one between -INF and +INF).
    """
    if any(math.isnan(v) for v in values):
        return float("nan")
    ordered = sorted(values)
    position = pct / 100 * (len(ordered) - 1)
    low = math.floor(position)
    below, above = ordered[low], ordered[min(low + 1, len(ordered) - 1)]
    fraction = position - low
    if fraction == 0:
        return below
    if math.isinf(below) and math.isinf(above):
        return below if fraction < 0.5 else above
    if math.isinf(below) or math.isinf(above):
        return below if math.isinf(below) else above
    return float(np.percentile(values, pct))


def percentile_oracle(query, results, cuts):
    """(HAVING constraint, explanation) per proposal, from per-value bands."""
    matching = set(query.anchor_row_indexes(results))
    if not matching or len(results) < 2:
        return []
    out = []
    for func, alias in MEASURE.aliases():
        column = results.index_of(alias)
        values = np.array([number(row[column], float("nan")) for row in results.rows])
        cut_values = [percentile_cut(values.tolist(), pct) for pct in cuts]
        bounds = [None, *cut_values, None]
        pcts = [None, *cuts, None]
        for low, high, low_pct, high_pct in zip(bounds, bounds[1:], pcts, pcts[1:]):
            in_band = [
                i for i, v in enumerate(values)
                if not (low is not None and v < low) and not (high is not None and v >= high)
            ]
            if not in_band or len(in_band) >= len(results) or not matching.intersection(in_band):
                continue
            out.append((
                _band_constraint(MEASURE, func, low, high),
                f"keep results with {func}(num) {_band_text(low_pct, high_pct)} "
                f"({len(in_band)} of {len(results)} tuples)",
            ))
    return out


def proposed(refinements):
    return [(r.query.having[-1], r.explanation) for r in refinements]


numeric_cell = st.one_of(
    st.integers(-4, 4).map(lambda v: Literal(str(v), datatype=XSD_INTEGER)),
    st.sampled_from(["0.5", "2.0", "2", "-1.25"]).map(
        lambda v: Literal(v, datatype=XSD_DECIMAL)),
    st.sampled_from(["INF", "-INF"]).map(lambda v: Literal(v, datatype=XSD_DOUBLE)),
)
cell = st.one_of(numeric_cell, numeric_cell, st.sampled_from(
    [None, Literal("n/a"), IRI("http://example.org/sim/not-a-number")]))


@st.composite
def columns(draw):
    query = cube_query(1, 0, (MEMBERS[0],))
    n = draw(st.integers(1, 25))
    rows = [
        (draw(st.sampled_from(MEMBERS[:3])),) + tuple(draw(cell) for _ in range(4))
        for _ in range(n)
    ]
    return query, result_set(query, rows)


class TestTopKParity:
    @settings(max_examples=300, deadline=None)
    @given(columns())
    def test_same_thresholds_k_and_explanations(self, case):
        query, results = case
        assert proposed(TopK().propose(query, results)) == topk_oracle(query, results)

    def test_ties_keep_first_occurrence_order(self):
        query = cube_query(1, 0, (MEMBERS[0],))
        a, b, c = MEMBERS[:3]
        one, three = (Literal(v, datatype=XSD_INTEGER) for v in ("1", "3"))
        # Descending in row order is a=3, b=3, c=1: the example's successor
        # ties with it, so no threshold separates them.  With the tie
        # reversed (b, a, c) the cut would fall at "> 1" instead.
        rows = [(a, *(three,) * 4), (b, *(three,) * 4), (c, *(one,) * 4)]
        results = result_set(query, rows)
        assert proposed(TopK().propose(query, results)) == topk_oracle(query, results)
        assert TopK().propose(query, results) == []


class TestInfiniteCells:
    def test_median_of_infinities_is_the_middle_value(self):
        # The 50th percentile of [-INF, 5, INF] is 5, not NaN: the band
        # above it keeps the example's row and drops -INF's.
        query = cube_query(1, 0, (MEMBERS[1],))
        rows = [
            (member, *(Literal(v, datatype=XSD_DOUBLE),) * 4)
            for member, v in ((MEMBERS[0], "-INF"), (MEMBERS[1], "5"), (MEMBERS[2], "INF"))
        ]
        results = result_set(query, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refinements = Percentile(cuts=(50,)).propose(query, results)
        assert refinements
        for refinement in refinements:
            constraint = refinement.query.having[-1]
            assert constraint.op == ">="
            assert constraint.right.term.numeric_value() == 5.0
            assert "(2 of 3 tuples)" in refinement.explanation


class TestPercentileParity:
    @settings(max_examples=300, deadline=None)
    @given(columns(), st.sampled_from([(25, 50, 75, 90), (50,), (10, 90), (33, 34)]))
    def test_same_bands_and_explanations(self, case, cuts):
        query, results = case
        got = proposed(Percentile(cuts=cuts).propose(query, results))
        assert got == percentile_oracle(query, results, cuts)

    def test_cuts_next_to_infinity_are_infinite(self):
        # The 75th and 90th cuts of [1, 2, INF] lie between 2 and INF, so
        # both are INF (numpy's interpolation makes them NaN).
        query = cube_query(1, 0, (MEMBERS[0],))
        rows = [
            (member, *(Literal(v, datatype=XSD_DOUBLE),) * 4)
            for member, v in ((MEMBERS[1], "1"), (MEMBERS[0], "2"), (MEMBERS[2], "INF"))
        ]
        results = result_set(query, rows)
        expected = percentile_oracle(query, results, (25, 50, 75, 90))
        assert expected
        assert proposed(Percentile().propose(query, results)) == expected
        assert [percentile_cut([1.0, 2.0, math.inf], pct) for pct in (75, 90)] \
            == [math.inf, math.inf]
