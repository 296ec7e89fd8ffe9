"""SPARQL subset engine: parser, evaluator, and query builder.

This subpackage replaces the external triplestore's query processor.  It
parses SPARQL text into an AST (:mod:`repro.sparql.parser`), evaluates it
against any graph exposing the pattern-matching API
(:mod:`repro.sparql.eval`), and offers a programmatic builder used by
REOLAP's query generation (:mod:`repro.sparql.builder`).
"""

from .ast import (
    Aggregate,
    AlternativePath,
    Arithmetic,
    AskQuery,
    BindClause,
    BoolOp,
    Comparison,
    ConstructQuery,
    ExistsFilter,
    MinusPattern,
    OneOrMorePath,
    ZeroOrMorePath,
    Expression,
    Filter,
    FunctionCall,
    GroupGraphPattern,
    InExpr,
    InversePath,
    NotExpr,
    OptionalPattern,
    OrderCondition,
    Projection,
    PropertyPath,
    Query,
    SelectQuery,
    SequencePath,
    TermExpr,
    TriplePattern,
    UnionPattern,
    ValuesClause,
)
from .aggregator import AggregatePlan, compile_aggregate, compile_aggregate_ex
from .builder import SelectBuilder, agg, path, var
from .eval import Evaluator, evaluate_query
from .operators import WherePlan, compile_where
from .explain import QueryPlan, explain
from .expressions import ExpressionError, effective_boolean_value, evaluate
from .parser import parse_query
from .results import SERIALIZERS, ResultSet, to_csv, to_sparql_json, to_tsv

__all__ = [
    "parse_query",
    "Evaluator",
    "evaluate_query",
    "WherePlan",
    "compile_where",
    "AggregatePlan",
    "compile_aggregate",
    "compile_aggregate_ex",
    "explain",
    "QueryPlan",
    "ResultSet",
    "SERIALIZERS",
    "to_csv",
    "to_sparql_json",
    "to_tsv",
    "SelectBuilder",
    "var",
    "path",
    "agg",
    "SelectQuery",
    "AskQuery",
    "ConstructQuery",
    "Query",
    "BindClause",
    "ExistsFilter",
    "MinusPattern",
    "OneOrMorePath",
    "ZeroOrMorePath",
    "GroupGraphPattern",
    "TriplePattern",
    "Projection",
    "Filter",
    "ValuesClause",
    "OptionalPattern",
    "UnionPattern",
    "OrderCondition",
    "Expression",
    "TermExpr",
    "Comparison",
    "Arithmetic",
    "BoolOp",
    "NotExpr",
    "FunctionCall",
    "InExpr",
    "Aggregate",
    "PropertyPath",
    "SequencePath",
    "InversePath",
    "AlternativePath",
    "ExpressionError",
    "evaluate",
    "effective_boolean_value",
]
