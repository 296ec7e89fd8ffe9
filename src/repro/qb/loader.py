"""Loading statistical KGs from tabular (CSV) data.

Most published statistical data starts life as tables; the related work
the paper builds on explores "enterprise data lakes (usually CSV files)".
This loader turns a table of observations into a QB-structured graph the
system can bootstrap directly: one observation per row, one dimension per
categorical column (with optional hierarchy columns rolling members up),
one measure per numeric column.

>>> table = [
...     {"destination": "Germany", "continent": "Europe", "applicants": "10"},
...     {"destination": "France", "continent": "Europe", "applicants": "20"},
... ]
>>> kg_graph = load_table(
...     table,
...     dimensions={"destination": "continent"},
...     measures=["applicants"],
... )
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Mapping, Sequence

from ..errors import SchemaError
from ..rdf.namespace import Namespace
from ..rdf.terms import IRI, Literal, XSD_DOUBLE, XSD_INTEGER
from ..rdf.triple import Triple
from ..store.graph import Graph
from .vocabulary import LABEL, OBSERVATION_CLASS, TYPE

__all__ = ["load_table", "load_csv"]


def load_table(
    rows: Iterable[Mapping[str, str]],
    dimensions: Mapping[str, str | None],
    measures: Sequence[str],
    namespace: str = "http://example.org/table/",
    graph: Graph | None = None,
) -> Graph:
    """Build a statistical KG from dictionaries (one observation per row).

    ``dimensions`` maps each dimension column to the column holding its
    parent level (or ``None`` for flat dimensions): ``{"destination":
    "continent"}`` makes ``continent`` a rollup level of ``destination``.
    ``measures`` lists numeric columns.  Member IRIs are minted per
    distinct cell value and labelled with the cell text.  Rows with
    missing dimension cells are rejected; missing measure cells are
    skipped (observation without that measure).
    """
    if not dimensions:
        raise SchemaError("at least one dimension column is required")
    if not measures:
        raise SchemaError("at least one measure column is required")
    overlap = set(dimensions) & set(measures)
    if overlap:
        raise SchemaError(f"columns {sorted(overlap)} are both dimension and measure")
    hierarchy_columns = {parent for parent in dimensions.values() if parent}

    ns = Namespace(namespace)
    graph = graph if graph is not None else Graph()
    members: dict[tuple[str, str], IRI] = {}
    # The triples go in as one bulk write: a rejected row adds none.
    pending: list[Triple] = []
    emit = pending.append

    def member_for(column: str, value: str) -> IRI:
        key = (column, value)
        existing = members.get(key)
        if existing is not None:
            return existing
        iri = ns.term(f"member/{column}/{len([k for k in members if k[0] == column])}")
        members[key] = iri
        emit(Triple(iri, LABEL, Literal(value)))
        return iri

    for column in list(dimensions) + sorted(hierarchy_columns):
        predicate = ns.term(f"prop/{column}")
        emit(Triple(predicate, LABEL, Literal(column.replace("_", " ").title())))
    for column in measures:
        predicate = ns.term(f"measure/{column}")
        emit(Triple(predicate, LABEL, Literal(column.replace("_", " ").title())))

    count = 0
    for index, row in enumerate(rows):
        obs = ns.term(f"obs/{index}")
        emitted_measure = False
        for column, parent_column in dimensions.items():
            value = (row.get(column) or "").strip()
            if not value:
                raise SchemaError(f"row {index}: missing dimension cell {column!r}")
            member = member_for(column, value)
            emit(Triple(obs, ns.term(f"prop/{column}"), member))
            if parent_column:
                parent_value = (row.get(parent_column) or "").strip()
                if not parent_value:
                    raise SchemaError(
                        f"row {index}: missing hierarchy cell {parent_column!r}"
                    )
                parent = member_for(parent_column, parent_value)
                emit(Triple(member, ns.term(f"prop/{parent_column}"), parent))
        for column in measures:
            cell = (row.get(column) or "").strip()
            if not cell:
                continue
            emit(Triple(obs, ns.term(f"measure/{column}"), _numeric_literal(cell, index, column)))
            emitted_measure = True
        if emitted_measure:
            emit(Triple(obs, TYPE, OBSERVATION_CLASS))
            count += 1
        else:
            raise SchemaError(f"row {index}: no measure value in any of {list(measures)}")
    graph.add_all(pending)
    if count == 0:
        raise SchemaError("the table contained no rows")
    return graph


def load_csv(
    source: IO[str],
    dimensions: Mapping[str, str | None],
    measures: Sequence[str],
    namespace: str = "http://example.org/table/",
    delimiter: str = ",",
) -> Graph:
    """Like :func:`load_table`, reading rows from an open CSV file."""
    reader = csv.DictReader(source, delimiter=delimiter)
    return load_table(reader, dimensions, measures, namespace=namespace)


def _numeric_literal(cell: str, index: int, column: str) -> Literal:
    try:
        int(cell)
        return Literal(cell, datatype=XSD_INTEGER)
    except ValueError:
        pass
    try:
        float(cell)
        return Literal(cell, datatype=XSD_DOUBLE)
    except ValueError:
        raise SchemaError(
            f"row {index}: measure {column!r} holds non-numeric value {cell!r}"
        ) from None
