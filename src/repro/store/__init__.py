"""Triple store substrate: indexed graphs, datasets, text index, endpoint.

Replaces the external RDF triplestore (Virtuoso in the paper's setup) with
an in-process, dictionary-encoded store and a SPARQL endpoint facade.
"""

from .dataset import Dataset, GraphView
from .durable import DurableGraph, RecoveryReport
from .endpoint import DEFAULT_TIMEOUT, Endpoint, EndpointStats
from .graph import Graph
from .index import (
    PredicateStats,
    TermDictionary,
    TripleIndex,
)
from .snapshot import (
    SnapshotTermDictionary,
    SnapshotView,
    load_snapshot,
    save_snapshot,
    verify_snapshot,
)
from .text_index import TextIndex, tokenize
from .wal import WalWriter, replay_wal

__all__ = [
    "DEFAULT_TIMEOUT",
    "Graph",
    "Dataset",
    "GraphView",
    "Endpoint",
    "EndpointStats",
    "TextIndex",
    "tokenize",
    "TermDictionary",
    "TripleIndex",
    "PredicateStats",
    "save_snapshot",
    "load_snapshot",
    "verify_snapshot",
    "SnapshotView",
    "SnapshotTermDictionary",
    "DurableGraph",
    "RecoveryReport",
    "WalWriter",
    "replay_wal",
]
