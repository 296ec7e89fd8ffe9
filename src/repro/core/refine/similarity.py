"""Example-driven Similarity Search (Problem 2c / Section 6.3, Figure 5).

Restrict the query to the *k* member combinations most similar to the one
the user exemplified.  Following Figure 5:

* the grouping variables matched by the example (the *anchored* dimensions
  δ1..δm) identify the entities being compared — e.g. (Country of
  Destination, Country of Origin) pairs;
* the remaining grouping variables (added by earlier Disaggregate steps,
  δm+1..δn) act as the *feature set*: each distinct combination of their
  values is one vector component, whose value is the aggregated measure
  (0 when a combination does not appear);
* cosine similarity between the example's vector and every other entity's
  vector ranks the candidates, and the top-k (plus every example
  combination) become a VALUES restriction on the anchored variables.

When no dimensions were added yet, each entity has a single scalar — there
cosine degenerates, so entities are ranked by absolute difference of the
measure value instead ("countries with a similar amount of asylum
requests", the paper's introductory example).

One refinement is produced per (measure, aggregate) pair: a fixed number
of reformulations, as Figure 9b reports.
"""

from __future__ import annotations

import itertools

import numpy as np

from ...rdf.terms import Node
from ...sparql.results import ResultSet
from ..describe import describe_similarity
from ..olap_query import OLAPQuery
from .base import Refinement, RefinementMethod, measure_columns

__all__ = ["SimilaritySearch"]

DEFAULT_K = 3


class SimilaritySearch(RefinementMethod):
    """The Sim operator: top-k most similar member combinations."""

    name = "similarity"

    def __init__(self, k: int = DEFAULT_K):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k

    def propose(self, query: OLAPQuery, results: ResultSet) -> list[Refinement]:
        anchored_vars = sorted(query.anchored_variables(), key=lambda v: v.name)
        if not anchored_vars or not len(results):
            return []
        added_vars = [v for v in query.group_variables if v not in set(anchored_vars)]
        examples = _example_combos(query, anchored_vars)
        combo, combos = _dense_ids(results.rows, [results.index_of(v) for v in anchored_vars])
        anchor = combos.get(examples[0])
        if anchor is None:
            return []
        taken = [combos[c] for c in examples if c in combos]
        feature, features = _dense_ids(results.rows, [results.index_of(v) for v in added_vars])
        # A repeated (combo, feature) cell keeps its last row.
        _, from_end = np.unique((combo * len(features) + feature)[::-1], return_index=True)
        kept = len(combo) - 1 - from_end
        combo, feature, combos = combo[kept], feature[kept], list(combos)

        columns, values = measure_columns(query, results, 0.0)
        proposals: list[Refinement] = []
        for (measure, func, _), column in zip(columns, values[:, kept]):
            sims = _similarities(column, combo, feature, anchor, len(combos), len(features))
            top = _top(sims, taken, combos, self.k)
            if not top:
                continue
            rows = tuple(examples) + tuple(top)
            aggregate_label = f"{func}({measure.label})"
            refined = query.with_member_restriction(
                tuple(anchored_vars),
                rows,
                describe_similarity(
                    query, self.k, aggregate_label,
                    [a.keyword for a in query.anchors],
                ),
            )
            names = ", ".join(_combo_text(c) for c in top)
            proposals.append(
                Refinement(
                    query=refined,
                    kind=self.name,
                    explanation=(
                        f"restrict to the {len(top)} combinations most similar "
                        f"to the example on {aggregate_label}: {names}"
                    ),
                )
            )
        return proposals


def _example_combos(query: OLAPQuery, anchored_vars) -> list[tuple[Node, ...]]:
    """The member combinations over ``anchored_vars`` that hold the example.

    Each anchor group (one example tuple) gives the product of the members
    it anchors per variable — two keywords in one column are two rows of
    that grouping — with None (UNDEF) where it anchors none.  The first
    combination is the one the others are ranked against.
    """
    groups: dict[int, dict] = {}
    for anchor in query.anchors:
        members = groups.setdefault(anchor.group, {}).setdefault(anchor.variable, [])
        if anchor.member not in members:
            members.append(anchor.member)
    combos: list[tuple[Node, ...]] = []
    for by_var in groups.values():
        if not any(v in by_var for v in anchored_vars):
            continue
        for combo in itertools.product(*(by_var.get(v, [None]) for v in anchored_vars)):
            if combo not in combos:
                combos.append(combo)
    return combos


def _similarities(values, combo, feature, anchor: int, n_combos: int, n_features: int):
    """Each combo's similarity to the anchor combo, indexed by combo id.

    ``values[i]`` is the measure of cell (``combo[i]``, ``feature[i]``).
    Cosine over the feature vectors (absent features count 0, a zero
    vector scores 0); with a single feature, closeness ``-|Δ|``.
    """
    if n_features == 1:
        scalar = np.zeros(n_combos)
        scalar[combo] = values
        return -np.abs(scalar[anchor] - scalar)
    anchor_vector = np.zeros(n_features)
    at_anchor = combo == anchor
    anchor_vector[feature[at_anchor]] = values[at_anchor]
    dots = np.bincount(combo, weights=values * anchor_vector[feature], minlength=n_combos)
    norms = np.sqrt(np.bincount(combo, weights=values * values, minlength=n_combos))
    norms *= np.sqrt(np.dot(anchor_vector, anchor_vector))
    return np.divide(dots, norms, out=np.zeros(n_combos), where=norms != 0.0)


def _top(sims: np.ndarray, taken: list[int], combos: list, k: int) -> list[tuple[Node, ...]]:
    """The ``k`` combos not ``taken`` with the highest ``sims``; exact ties by term keys."""
    free = np.ones(len(sims), dtype=bool)
    free[taken] = False
    candidates = np.flatnonzero(free)
    if len(candidates) > k:
        kth = -np.partition(-sims[candidates], k - 1)[k - 1]
        candidates = candidates[sims[candidates] >= kth]
    ranked = sorted(candidates.tolist(), key=lambda c: (-sims[c], _combo_key(combos[c])))
    return [combos[c] for c in ranked[:k]]


def _dense_ids(rows, idx) -> tuple[np.ndarray, dict]:
    """Dense first-occurrence ids of each row's ``idx`` members."""
    ids: dict[tuple, int] = {}
    codes = [ids.setdefault(tuple(map(row.__getitem__, idx)), len(ids)) for row in rows]
    return np.array(codes, dtype=np.int64), ids


def _combo_key(combo: tuple[Node, ...]) -> tuple:
    return tuple(term.sort_key() if term is not None else (-1,) for term in combo)


def _combo_text(combo: tuple[Node, ...]) -> str:
    names = (t.local_name() if hasattr(t, "local_name") else str(t) for t in combo)
    return "(" + ", ".join(names) + ")"
