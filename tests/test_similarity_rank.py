"""Similarity Search ranks exactly as the dense dict-of-vectors ranking did.

``SimilaritySearch.propose`` codes each result row once as a (combo,
feature) cell and ranks with ``bincount`` dot products.  The oracle below is
the ranking it replaced: one dense vector per member combination, built
through a dict lookup per (combination, feature).  With integer measures
both compute the same float64 sums exactly, so the chosen VALUES rows and
the explanations must be identical; with float measures the chosen
combinations' similarities must agree to 1e-12.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    Anchor, MeasureColumn, OLAPQuery, QueryDimension, SimilaritySearch, VLevel,
)
from repro.rdf import IRI, Literal
from repro.rdf.terms import XSD_DECIMAL, XSD_INTEGER
from repro.sparql.results import ResultSet

EX = "http://example.org/sim/"
MEASURE = MeasureColumn(IRI(EX + "num"), "num")
MEMBERS = [IRI(EX + f"member/{i}") for i in range(5)]


def cube_query(n_anchored: int, n_added: int, anchor_combo) -> OLAPQuery:
    """A query grouped by ``n_anchored`` + ``n_added`` levels, anchored on the first."""
    levels = [
        VLevel((IRI(EX + f"dim{d}"),), member_count=len(MEMBERS), label=f"dim{d}")
        for d in range(n_anchored + n_added)
    ]
    anchors = tuple(
        Anchor(level, member, keyword=f"kw{d}")
        for d, (level, member) in enumerate(zip(levels, anchor_combo))
    )
    return OLAPQuery(
        IRI(EX + "Observation"),
        tuple(QueryDimension(level) for level in levels),
        (MEASURE,),
        anchors=anchors,
    )


def result_set(query: OLAPQuery, rows) -> ResultSet:
    """Rows of (group members..., one cell per aggregate alias)."""
    variables = list(query.group_variables) + [alias for _, alias in MEASURE.aliases()]
    return ResultSet(variables, [tuple(row) for row in rows])


def combo_key(combo):
    return tuple(term.sort_key() if term is not None else (-1,) for term in combo)


def dense_rank(results, anchored_idx, added_idx, value_idx, anchor_combo):
    """The replaced ranking: (combo, sim) by decreasing sim, ties by combo key."""
    vectors, features = {}, set()
    for row in results.rows:
        combo = tuple(row[i] for i in anchored_idx)
        feature = tuple(row[i] for i in added_idx)
        features.add(feature)
        term = row[value_idx]
        numeric = isinstance(term, Literal) and term.is_numeric
        vectors.setdefault(combo, {})[feature] = term.numeric_value() if numeric else 0.0
    if anchor_combo not in vectors:
        return []
    order = sorted(features, key=combo_key)
    dense = lambda sparse: np.array([sparse.get(f, 0.0) for f in order], dtype=float)  # noqa: E731
    anchor = dense(vectors[anchor_combo])
    ranked = []
    for combo, sparse in vectors.items():
        if combo == anchor_combo:
            continue
        other = dense(sparse)
        if anchor.size == 1:
            sim = -abs(float(anchor[0]) - float(other[0]))
        else:
            norm = float(np.linalg.norm(anchor) * np.linalg.norm(other))
            sim = 0.0 if norm == 0.0 else float(np.dot(anchor, other) / norm)
        ranked.append((combo, sim))
    ranked.sort(key=lambda item: (-item[1], combo_key(item[0])))
    return ranked


def combo_text(combo):
    return "(" + ", ".join(t.local_name() if hasattr(t, "local_name") else str(t)
                           for t in combo) + ")"


def oracle(query, results, k):
    """Per aggregate alias: the ranking, and the proposal the oracle makes."""
    anchored_vars = sorted(query.anchored_variables(), key=lambda v: v.name)
    added_vars = [v for v in query.group_variables if v not in set(anchored_vars)]
    anchor_combo = tuple(a.member for a in sorted(query.anchors, key=lambda a: a.variable.name))
    out = []
    for func, alias in MEASURE.aliases():
        ranked = dense_rank(
            results,
            [results.index_of(v) for v in anchored_vars],
            [results.index_of(v) for v in added_vars],
            results.index_of(alias),
            anchor_combo,
        )
        if not ranked:
            continue
        top = [combo for combo, _ in ranked[:k]]
        explanation = (
            f"restrict to the {len(top)} combinations most similar to the example "
            f"on {func}(num): {', '.join(combo_text(c) for c in top)}"
        )
        out.append((ranked, (anchor_combo,) + tuple(top), explanation))
    return out


def assert_same_proposals(query, results, k, exact=True):
    expected = oracle(query, results, k)
    proposals = SimilaritySearch(k=k).propose(query, results)
    assert len(proposals) == len(expected)
    for refinement, (ranked, rows, explanation) in zip(proposals, expected):
        values = refinement.query.member_restrictions[-1]
        if exact:
            assert values.rows == rows
            assert refinement.explanation == explanation
            continue
        sims = dict(ranked)
        assert values.rows[0] == rows[0] and len(values.rows) == len(rows)
        for chosen, (_, best) in zip(values.rows[1:], ranked):
            assert abs(sims[chosen] - best) <= 1e-12


def integer(value):
    return Literal(str(value), datatype=XSD_INTEGER)


member = st.sampled_from(MEMBERS[:3] + [None])
integer_cell = st.integers(-3, 3).map(integer)
non_numeric_cell = st.sampled_from([None, Literal("n/a"), IRI(EX + "not-a-number")])
float_cell = st.floats(-1e3, 1e3, allow_nan=False).map(
    lambda v: Literal(repr(v), datatype=XSD_DECIMAL)
)


@st.composite
def cases(draw, cell):
    n_anchored = draw(st.integers(1, 2))
    n_added = draw(st.integers(0, 2))
    width = n_anchored + n_added
    anchor_combo = tuple(draw(st.sampled_from(MEMBERS[:3])) for _ in range(n_anchored))
    query = cube_query(n_anchored, n_added, anchor_combo)
    rows = draw(st.lists(
        st.tuples(st.lists(member, min_size=width, max_size=width),
                  st.lists(st.one_of(cell, non_numeric_cell), min_size=4, max_size=4)),
        min_size=1, max_size=30,
    ))
    if draw(st.booleans()):  # else the anchor is often missing
        rows.append((list(anchor_combo) + [draw(member) for _ in range(n_added)],
                     [draw(cell) for _ in range(4)]))
    rows = [tuple(groups) + tuple(cells) for groups, cells in draw(st.permutations(rows))]
    return query, result_set(query, rows), draw(st.integers(1, 4))


class TestParityWithDenseRanking:
    @settings(max_examples=300, deadline=None)
    @given(cases(integer_cell))
    def test_integer_measures_rank_identically(self, case):
        query, results, k = case
        assert_same_proposals(query, results, k)

    @settings(max_examples=150, deadline=None)
    @given(cases(float_cell))
    def test_float_measures_agree_to_1e_12(self, case):
        query, results, k = case
        assert_same_proposals(query, results, k, exact=False)


class TestEdgeCases:
    def rows(self, cells):
        return [members + (integer(v),) * 4 for members, v in cells]

    def test_exact_ties_break_by_combo_key(self):
        a, b, c, d = MEMBERS[:4]
        query = cube_query(1, 1, (a,))
        rows = self.rows([((a, a), 1), ((a, b), 2), ((d, a), 1), ((d, b), 2),
                          ((b, a), 5), ((b, b), 1), ((c, a), 1), ((c, b), 2)])
        assert_same_proposals(query, result_set(query, rows), 1)
        [proposal, *_] = SimilaritySearch(k=1).propose(query, result_set(query, rows))
        assert proposal.query.member_restrictions[-1].rows == ((a,), (c,))

    def test_all_zero_vectors(self):
        a, b, c = MEMBERS[:3]
        query = cube_query(1, 1, (a,))
        rows = self.rows([((a, a), 0), ((a, b), 0), ((c, a), 0), ((b, b), 5)])
        assert_same_proposals(query, result_set(query, rows), 1)

    def test_duplicate_cells_keep_the_last_row(self):
        a, b, c = MEMBERS[:3]
        query = cube_query(1, 1, (a,))
        rows = self.rows([((a, a), 1), ((a, b), 1), ((b, a), 9), ((b, b), 1),
                          ((c, a), 1), ((c, b), 2), ((b, a), 1)])
        assert_same_proposals(query, result_set(query, rows), 1)
        [proposal, *_] = SimilaritySearch(k=1).propose(query, result_set(query, rows))
        assert proposal.query.member_restrictions[-1].rows == ((a,), (b,))

    def test_added_dims_with_one_distinct_feature_use_the_scalar_fallback(self):
        a, b, c = MEMBERS[:3]
        query = cube_query(1, 1, (a,))
        rows = self.rows([((a, c), 10), ((b, c), 100), ((c, c), 12)])
        assert_same_proposals(query, result_set(query, rows), 1)
        [proposal, *_] = SimilaritySearch(k=1).propose(query, result_set(query, rows))
        assert proposal.query.member_restrictions[-1].rows == ((a,), (c,))

    def test_anchor_missing_from_the_results(self):
        a, b, c = MEMBERS[:3]
        query = cube_query(1, 0, (a,))
        rows = self.rows([((b,), 1), ((c,), 2)])
        assert SimilaritySearch().propose(query, result_set(query, rows)) == []

    def test_result_holding_only_the_anchor(self):
        a, b = MEMBERS[:2]
        query = cube_query(1, 1, (a,))
        rows = self.rows([((a, a), 1), ((a, b), 2)])
        assert SimilaritySearch().propose(query, result_set(query, rows)) == []

    def test_every_example_tuple_stays_in_the_values_rows(self):
        # Two example tuples anchor the same column.  b is the least
        # similar to a, yet the refinement must keep both examples.
        a, b, c, d = MEMBERS[:4]
        query = cube_query(1, 1, (a,))
        second = Anchor(query.anchors[0].level, b, keyword="kw-b", group=1)
        query = query.with_anchors(query.anchors + (second,))
        rows = self.rows([((a, a), 1), ((a, b), 2), ((b, a), 9), ((b, b), 1),
                          ((c, a), 1), ((c, b), 2), ((d, a), 2), ((d, b), 1)])
        proposals = SimilaritySearch(k=1).propose(query, result_set(query, rows))
        assert len(proposals) == 4
        for proposal in proposals:
            assert proposal.query.member_restrictions[-1].rows == ((a,), (b,), (c,))

    def test_two_keywords_in_one_column_are_two_example_rows(self):
        a, b, c, d = MEMBERS[:4]
        query = cube_query(1, 1, (a,))
        second = Anchor(query.anchors[0].level, b, keyword="kw-b")
        query = query.with_anchors(query.anchors + (second,))
        rows = self.rows([((a, a), 1), ((a, b), 2), ((b, a), 9), ((b, b), 1),
                          ((c, a), 1), ((c, b), 2), ((d, a), 2), ((d, b), 1)])
        [proposal, *_] = SimilaritySearch(k=1).propose(query, result_set(query, rows))
        assert proposal.query.member_restrictions[-1].rows == ((a,), (b,), (c,))
