"""The batched VALUES join against the tuple engine's nested loop.

``vectorized._values_join`` joins a batch with the encoded VALUES (or
subquery) rows in one key join.  The tuple engine's ``ValuesBind.run``
is the reference: for each incoming row, each VALUES row in order, the
cells checked left to right.  Both must give the same rows in the same
order (by batch row, then by VALUES row) with the same source map,
whatever mix of unbound registers, UNDEF cells and repeated variables
the draw holds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.rdf import IRI, Triple
from repro.sparql import parse_query
from repro.sparql.operators import ValuesBind
from repro.sparql.vectorized import UNBOUND, Batch, _values_join
from repro.store import Graph

from tests.test_vectorized_parity import EX, assert_select_parity

#: Small ids so rows collide; -2 stands for a plan-local pseudo id.
cell_values = st.sampled_from([0, 1, 2, -2])


class _Context:
    @staticmethod
    def check() -> None:
        pass


@st.composite
def batches(draw):
    width = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    cols = []
    for _slot in range(width):
        kind = draw(st.sampled_from(["none", "all", "mixed"]))
        if kind == "none":
            cols.append(None)
            continue
        cells = draw(st.lists(cell_values, min_size=n, max_size=n))
        if kind == "mixed":
            unbound = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            cells = [UNBOUND if gone else cell for cell, gone in zip(cells, unbound)]
        cols.append(np.array(cells, dtype=np.int64))
    return Batch(cols, n)


@st.composite
def values_clauses(draw, width):
    arity = draw(st.integers(1, 3))
    slots = tuple(draw(st.integers(0, width - 1)) for _ in range(arity))
    rows = draw(st.lists(
        st.tuples(*[st.one_of(st.none(), cell_values)] * arity), max_size=6))
    return slots, tuple(rows)


def reference(cell_slots, encoded_rows, batch):
    """``ValuesBind.run`` over the batch's rows, tagged with their index."""
    width = batch.width
    rows = []
    for i in range(batch.n):
        row = [None] * (width + 1)
        row[width] = i
        for slot, col in enumerate(batch.cols):
            if col is not None and col[i] != UNBOUND:
                row[slot] = int(col[i])
        rows.append(row)
    op = ValuesBind(None, cell_slots, encoded_rows)
    return [(row[width], tuple(row[:width])) for row in op.run(iter(rows), _Context())]


def joined(cell_slots, encoded_rows, batch):
    out, src = _values_join(cell_slots, encoded_rows, batch)
    assert len(src) == out.n
    rows = []
    for i in range(out.n):
        cells = tuple(None if col is None or col[i] == UNBOUND else int(col[i])
                      for col in out.cols)
        rows.append((int(src[i]), cells))
    return rows


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_values_join_matches_the_nested_loop(data):
    batch = data.draw(batches())
    cell_slots, encoded_rows = data.draw(values_clauses(batch.width))
    assert joined(cell_slots, encoded_rows, batch) == \
        reference(cell_slots, encoded_rows, batch)


def test_repeated_variable_in_values():
    """``VALUES (?x ?x)``: a row naming two values joins nothing."""
    graph = Graph()
    for i in range(3):
        graph.add(Triple(IRI(f"{EX}s{i}"), IRI(f"{EX}p"), IRI(f"{EX}o{i}")))
    graph.triple_index.flush()
    values = (f"VALUES (?x ?x) {{ (<{EX}o1> <{EX}o2>) (<{EX}o1> <{EX}o1>) "
              f"(UNDEF <{EX}o2>) }}")
    for text in (f"SELECT ?x WHERE {{ {values} }}",
                 f"SELECT ?s ?x WHERE {{ ?s <{EX}p> ?x {values} }}"):
        for batch_size in (1, 64):
            assert_select_parity(graph, parse_query(text), batch_size)
