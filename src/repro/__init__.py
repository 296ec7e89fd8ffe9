"""RE2xOLAP reproduction: example-driven exploratory analytics over KGs.

Reproduction of "Example-Driven Exploratory Analytics over Knowledge
Graphs" (Lissandrini, Hose, Pedersen; EDBT 2023).  The package is layered
bottom-up:

* :mod:`repro.rdf` — RDF data model and serializations;
* :mod:`repro.store` — indexed triple store, text index, SPARQL endpoint;
* :mod:`repro.sparql` — SPARQL subset parser / evaluator / builder;
* :mod:`repro.qb` — RDF Data Cube schema descriptors and cube builder;
* :mod:`repro.datasets` — schema-faithful synthetic dataset generators;
* :mod:`repro.core` — the paper's contribution: virtual schema graph,
  REOLAP synthesis, ExRef refinements, and the interactive session;
* :mod:`repro.baselines` — the SPARQLByE comparator;
* :mod:`repro.serving` — concurrent, cache-accelerated query service layer
  (multi-tier result cache, bounded worker pool, session multiplexing);
* :mod:`repro.resilience` — fault injection, retry policy, circuit
  breaker, and graceful degradation for the whole query path.

Quickstart::

    from repro.datasets import generate_eurostat
    from repro.core import ExplorationSession, VirtualSchemaGraph
    from repro.qb import OBSERVATION_CLASS

    kg = generate_eurostat(n_observations=2000, scale=0.4)
    endpoint = kg.endpoint()
    vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
    session = ExplorationSession(endpoint, vgraph)
    for candidate in session.synthesize("Germany", "2013"):
        print(candidate.description)
"""

from .core import (
    AnalyticalView,
    ExplorationSession,
    OLAPQuery,
    Refinement,
    VirtualSchemaGraph,
    contrast,
    insight_summary,
    labeled_results,
    profile,
    reolap,
    reolap_multi,
    reolap_with_negatives,
    suggest,
)
from .errors import (
    AdmissionError,
    BootstrapError,
    CircuitOpenError,
    EndpointUnavailableError,
    QueryEvaluationError,
    QueryTimeoutError,
    RDFSyntaxError,
    RefinementError,
    ReproError,
    RequestShedError,
    SchemaError,
    ServiceShutdownError,
    ServingError,
    SPARQLSyntaxError,
    SynthesisError,
    TransientError,
)
from .resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    ResilientEndpoint,
    RetryPolicy,
)
from .serving import QueryCache, QueryService
from .store import DEFAULT_TIMEOUT, Endpoint, Graph

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ExplorationSession",
    "VirtualSchemaGraph",
    "OLAPQuery",
    "Refinement",
    "AnalyticalView",
    "reolap",
    "reolap_multi",
    "reolap_with_negatives",
    "contrast",
    "suggest",
    "insight_summary",
    "labeled_results",
    "profile",
    "DEFAULT_TIMEOUT",
    "Endpoint",
    "Graph",
    "QueryCache",
    "QueryService",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientEndpoint",
    "FaultInjector",
    "FaultPlan",
    "ReproError",
    "RDFSyntaxError",
    "SPARQLSyntaxError",
    "QueryEvaluationError",
    "QueryTimeoutError",
    "TransientError",
    "EndpointUnavailableError",
    "CircuitOpenError",
    "RequestShedError",
    "SchemaError",
    "BootstrapError",
    "SynthesisError",
    "RefinementError",
    "ServingError",
    "AdmissionError",
    "ServiceShutdownError",
]
