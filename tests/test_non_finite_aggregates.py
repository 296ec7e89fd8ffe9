"""SUM and AVG over infinite doubles.

``INF + -INF`` is NaN.  Every executor must write it, and the infinities,
in XSD's lexical forms (``NaN``, ``INF``, ``-INF``) without numpy
warnings, and the refinements must read such a NaN cell as their default
for non-numeric cells instead of raising.
"""

import math
import warnings

from repro.core import Percentile, SimilaritySearch, TopK
from repro.core.refine.base import measure_columns
from repro.rdf import IRI, Literal, Triple
from repro.rdf.terms import XSD_DOUBLE, XSD_INTEGER
from repro.sparql import Evaluator
from repro.store import Graph

from tests.test_similarity_rank import MEMBERS, cube_query, result_set

EX = "http://example.org/"
INF = Literal("INF", datatype=XSD_DOUBLE)
NEG_INF = Literal("-INF", datatype=XSD_DOUBLE)
NAN = Literal("NaN", datatype=XSD_DOUBLE)
FIVE = Literal("5", datatype=XSD_INTEGER)

QUERY = (f"SELECT ?a (SUM(?v) AS ?s) (AVG(?v) AS ?m) WHERE {{ "
         f"?o <{EX}a> ?a . ?o <{EX}v> ?v }} GROUP BY ?a")


def iri(name):
    return IRI(EX + name)


def integer(value):
    return Literal(str(value), datatype=XSD_INTEGER)


def graph():
    cells = [("a0", INF), ("a0", NEG_INF), ("a1", INF), ("a1", FIVE), ("a2", FIVE)]
    triples = []
    for index, (member, value) in enumerate(cells):
        triples.append(Triple(iri(f"o{index}"), iri("a"), iri(member)))
        triples.append(Triple(iri(f"o{index}"), iri("v"), value))
    return Graph(triples=triples)


def test_every_executor_writes_xsd_lexical_forms():
    expected = [(iri("a0"), NAN, NAN), (iri("a1"), INF, INF), (iri("a2"), FIVE, FIVE)]
    g = graph()
    for options in ({"vectorize": True}, {"vectorize": False}, {"compile": False}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = Evaluator(g, **options).select(QUERY).rows
        assert rows == expected, options
    assert math.isinf(INF.numeric_value())


def test_refinements_read_a_nan_cell_as_their_default():
    query = cube_query(1, 0, (MEMBERS[0],))
    cells = [(NAN, 1, 2, 3), (5, 2, 3, 4), (6, 3, 1, 2), (7, 4, 4, 1), (8, 5, 5, 5)]
    results = result_set(query, [
        (member,) + tuple(c if isinstance(c, Literal) else integer(c) for c in row)
        for member, row in zip(MEMBERS, cells)
    ])
    _columns, values = measure_columns(query, results, -1.0)
    assert values[:, 0].tolist() == [-1.0, 1.0, 2.0, 3.0]
    for method in (TopK(), Percentile(), SimilaritySearch(k=1)):
        assert method.propose(query, results), method.name
