"""Batched existence checks for BGPs that share evaluation prefixes.

REOLAP validates every candidate query by probing whether its WHERE clause
has at least one solution (Section 5.3).  Sibling candidates differ in a
few grouping levels but share most of their anchored patterns, so checking
them one ASK at a time re-joins the same prefix over and over.  This
module lowers each candidate BGP to id-space steps — the same per-pattern
lowering ``compile_where`` uses (:mod:`.operators`), at a dictionary
lookup per constant — and merges the step sequences into a **prefix
trie**: two candidates whose ordered patterns agree on a prefix produce
identical step tuples (constants are ids, variables are first-occurrence
register slots), so they share trie nodes and the shared prefix is
evaluated once per batch.

A single depth-first walk over the trie answers every candidate: a row of
register bindings that survives to a leaf proves that candidate non-empty,
and subtrees whose candidates are all proven are pruned.  Each node counts
how many times its step was probed, which is how tests (and the endpoint
statistics) observe the sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import GroupGraphPattern, PropertyPath, TriplePattern
from .eval import _Deadline
from .operators import _Lowering, id_backend
from .optimizer import estimate_cardinality, order_patterns

__all__ = ["BatchStats", "ask_bgp_batch", "order_batch", "simple_bgp"]


@dataclass
class BatchStats:
    """What one batched evaluation did, for observability and tests."""

    candidates: int = 0  #: BGPs merged into the trie
    total_steps: int = 0  #: sum of the candidates' step counts
    unique_steps: int = 0  #: trie nodes — steps actually represented
    probes: int = 0  #: step executions performed during the walk

    @property
    def steps_shared(self) -> int:
        """Steps deduplicated away by prefix sharing."""
        return self.total_steps - self.unique_steps


def simple_bgp(where: GroupGraphPattern) -> list[TriplePattern] | None:
    """The pattern list of a WHERE clause that is a pure conjunctive BGP.

    Returns None when the group holds anything besides triple patterns
    (filters, OPTIONAL, UNION, ...) or is empty — those queries take the
    ordinary evaluation path.
    """
    patterns: list[TriplePattern] = []
    for element in where.elements:
        if not isinstance(element, TriplePattern):
            return None
        patterns.append(element)
    return patterns or None


def order_batch(
    graph, bgps: list[list[TriplePattern]], optimize: bool = True
) -> list[list[TriplePattern]]:
    """Reorder each BGP to maximize trie sharing without losing selectivity.

    A pattern the candidates all agree on can only be shared if every
    candidate evaluates it at the same position — but running the join
    optimizer per candidate puts each candidate's *own* anchors first and
    destroys the common prefix.  So the patterns present in **every** BGP
    become a shared prefix, ordered most-selective-first (cheap via the
    statistics catalog), and only the candidate-specific remainder is
    optimizer-ordered, with the prefix variables counted as bound.
    """
    if len(bgps) < 2:
        return [order_patterns(graph, b) if optimize and len(b) > 1 else list(b) for b in bgps]
    seen: set[TriplePattern] = set()
    universal = []
    for pattern in bgps[0]:
        if pattern not in seen and all(pattern in other for other in bgps[1:]):
            seen.add(pattern)  # dedup: each shared pattern joins the prefix once
            universal.append(pattern)
    universal.sort(key=lambda p: (estimate_cardinality(graph, p), p.to_sparql()))
    prefix_vars = {v for p in universal for v in p.variables()}
    ordered: list[list[TriplePattern]] = []
    for patterns in bgps:
        rest = list(patterns)
        for shared in universal:
            rest.remove(shared)
        if optimize and len(rest) > 1:
            rest = order_patterns(graph, rest, bound=prefix_vars)
        ordered.append(universal + rest)
    return ordered


class _TrieNode:
    __slots__ = ("children", "leaves", "subtree", "probes")

    def __init__(self) -> None:
        self.children: dict[tuple, _TrieNode] = {}
        self.leaves: list[int] = []  # candidates whose BGP ends here
        self.subtree: list[int] = []  # candidates at or below this node
        self.probes = 0


def ask_bgp_batch(
    graph, bgps: list[list[TriplePattern]], timeout: float | None = None
) -> tuple[list[bool | None], BatchStats]:
    """Existence-check many *ordered* BGPs against one graph, at once.

    Returns one verdict per input BGP: True/False when the batch engine
    decided it, None when that BGP has no flat step lowering (no id
    backend, property-path predicate, no patterns) and the caller must
    fall back to a normal ASK.  Raises
    :class:`~repro.errors.QueryTimeoutError` when the shared walk exceeds
    ``timeout`` seconds.
    """
    stats = BatchStats()
    results: list[bool | None] = [None] * len(bgps)
    backend = id_backend(graph)
    if backend is None:
        return results, stats
    dictionary, triple_index = backend

    root = _TrieNode()
    width = 0
    for index, patterns in enumerate(bgps):
        if not patterns or any(isinstance(p.p, PropertyPath) for p in patterns):
            continue  # caller falls back to a normal ASK
        # One register allocation per candidate, so equal prefixes lower
        # to equal (step, eqs) keys whatever follows them.
        lowering = _Lowering(graph, dictionary, triple_index, optimize=False)
        keys = []
        for pattern in patterns:
            key = lowering.lower_step(pattern)
            if key is None:
                break
            keys.append(key)
        results[index] = False  # pending; flipped by the walk
        if len(keys) < len(patterns):
            continue  # a never-stored constant: provably empty
        stats.candidates += 1
        stats.total_steps += len(keys)
        width = max(width, lowering.num_registers)
        node = root
        node.subtree.append(index)
        # Keyed on (step, eqs): a repeated-variable step (?x <p> ?x) has
        # the same positional tuple as a plain two-variable step, so the
        # equality pairs must be part of the node identity.
        for key in keys:
            child = node.children.get(key)
            if child is None:
                child = _TrieNode()
                node.children[key] = child
                stats.unique_steps += 1
            child.subtree.append(index)
            node = child
        node.leaves.append(index)

    if stats.candidates:
        _walk(triple_index, root, [None] * width, results, _Deadline(timeout))
        stats.probes = _sum_probes(root)
    return results, stats


def _walk(index, root: _TrieNode, row: list, results: list, deadline) -> None:
    """One DFS over the trie proving candidates non-empty as rows survive.

    The row is a shared register file: step tuples encode their register
    slots, and two candidates only share a node when their slot layouts
    agree on the whole prefix, so a single row serves every branch.
    """
    match = index.match
    check = deadline.check

    def visit(node: _TrieNode, row: list) -> None:
        for leaf in node.leaves:
            results[leaf] = True  # a surviving row reached this candidate's end
        for (step, eqs), child in node.children.items():
            if all(results[i] for i in child.subtree):
                continue  # everything below is already proven
            child.probes += 1
            sc, ss, pc, ps, oc, os_ = step
            s = sc if ss is None else row[ss]
            p = pc if ps is None else row[ps]
            o = oc if os_ is None else row[os_]
            for sid, pid, oid in match(s, p, o):
                check()
                new = row.copy()
                if s is None:
                    new[ss] = sid
                if p is None:
                    new[ps] = pid
                if o is None:
                    new[os_] = oid
                if eqs and not all(new[a] == new[b] for a, b in eqs):
                    continue  # repeated-variable step: registers must agree
                visit(child, new)
                if all(results[i] for i in child.subtree):
                    break  # early exit: no open question below this child

    visit(root, row)


def _sum_probes(node: _TrieNode) -> int:
    total = node.probes
    for child in node.children.values():
        total += _sum_probes(child)
    return total
