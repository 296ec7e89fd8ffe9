"""Answer checking from results alone (the paper's invariants).

Both clients reduce an answer to a :class:`Table` of plain Python values —
IRI strings for members, floats for aggregates — so the in-process and the
HTTP runs are judged by the same code and their digests are comparable.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

_AGGREGATE_PREFIXES = ("sum_", "min_", "max_", "avg_")
_TOPK = re.compile(r"top-(\d+) ")


class Table:
    """Column access over one answer; columns are converted on first use."""

    def __init__(self, names: list[str], n_rows: int, column):
        self.names = names
        self.n_rows = n_rows
        self._column = column  # name -> list of str | None
        self._cache: dict[str, list] = {}

    @classmethod
    def from_result_set(cls, results) -> "Table":
        names = [variable.name for variable in results.variables]
        rows = results.rows

        def column(name):
            index = names.index(name)
            return [None if row[index] is None else _lexical(row[index])
                    for row in rows]

        return cls(names, len(rows), column)

    @classmethod
    def from_json(cls, document: dict) -> "Table":
        """From the ``results`` object of a session step document."""
        bindings = document["bindings"]

        def column(name):
            return [b[name]["value"] if name in b else None for b in bindings]

        return cls(list(document["vars"]), len(bindings), column)

    def keys(self, name: str) -> list:
        if name not in self._cache:
            self._cache[name] = self._column(name)
        return self._cache[name]

    def numbers(self, name: str) -> list[float]:
        return [float(value) for value in self.keys(name)]

    @property
    def group_names(self) -> list[str]:
        return [n for n in self.names if not n.startswith(_AGGREGATE_PREFIXES)]

    def digest(self) -> str:
        """Order-free digest of the whole answer (canonical sorted rows)."""
        columns = [self.keys(name) for name in self.names]
        rows = sorted(
            "\t".join(_canonical(column[i]) for column in columns)
            for i in range(self.n_rows))
        digest = hashlib.blake2b(digest_size=12)
        digest.update("\t".join(self.names).encode())
        for row in rows:
            digest.update(b"\n" + row.encode())
        return digest.hexdigest()


def _lexical(term) -> str:
    return term.value if hasattr(term, "value") else term.lexical


def _canonical(value) -> str:
    """Numbers compare by value: ``6`` and ``6.0`` are the same aggregate."""
    if value is None:
        return ""
    try:
        return repr(float(value))
    except ValueError:
        return value


def contains_example(table: Table, accept: list[set]) -> bool:
    """The answer still holds the example.

    Every keyword must be matched by some row.  Keywords that can only sit
    in different columns must be matched by one and the same row; two
    keywords that share a column (two countries read as two origins) are
    two rows of one grouping, and are only checked one by one.
    """
    columns = [table.keys(name) for name in table.group_names]
    found = []  # per keyword: {column index: rows holding an accepted member}
    for allowed in accept:
        hits = {}
        for position, column in enumerate(columns):
            rows = {i for i, value in enumerate(column) if value in allowed}
            if rows:
                hits[position] = rows
        if not hits:
            return False
        found.append(hits)
    joint = None
    for index, hits in enumerate(found):
        others = set().union(*(f for i, f in enumerate(found) if i != index))
        if others.isdisjoint(hits):
            rows = set().union(*hits.values())
            joint = rows if joint is None else joint & rows
            if not joint:
                return False
    return True


def topk_bound(explanation: str) -> int | None:
    found = _TOPK.search(explanation)
    return int(found.group(1)) if found else None


def resums_to_parent(parent: Table, child: Table, exact: bool) -> bool:
    """A drill-down's groups re-aggregate to the parent's totals.

    ``exact`` for 1-to-N roll-ups.  An M-to-N step counts an observation
    once per parent, so there the re-summed total may only be larger.
    """
    sums = [n for n in parent.names if n.startswith("sum_")]
    if not sums or sums[0] not in child.names:
        return True
    measure = sums[0]
    group = parent.group_names
    if any(name not in child.names for name in group):
        return True
    totals: Counter = Counter()
    child_keys = zip(*(child.keys(name) for name in group))
    for key, value in zip(child_keys, child.numbers(measure)):
        totals[key] += value
    parent_keys = zip(*(parent.keys(name) for name in group))
    for key, value in zip(parent_keys, parent.numbers(measure)):
        got = totals.get(key, 0.0)
        tolerance = 1e-9 * max(1.0, abs(value))
        if abs(got - value) > tolerance and (exact or got < value):
            return False
    return True
