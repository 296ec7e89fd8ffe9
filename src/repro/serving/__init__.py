"""Concurrent, cache-accelerated serving layer.

The paper's prototype serves one analyst against one endpoint; this
subsystem is the scaling substrate the ROADMAP's production north star
builds on.  It layers three pieces over the in-process store:

* :mod:`repro.serving.cache` — a thread-safe multi-tier LRU+TTL cache
  (parsed ASTs, query results, keyword resolutions)
  invalidated by the graph epoch counter;
* :mod:`repro.serving.executor` — the one worker pool: per-tenant bounded
  lanes with token-bucket quotas drained round-robin, and per-request
  deadlines;
* :mod:`repro.serving.service` — :class:`QueryService`, which multiplexes
  many concurrent exploration sessions over one shared store, keeps the
  tenant-scoped session table, and exposes aggregate
  throughput/latency/hit-rate statistics.
"""

from .cache import MISS, CacheStats, LRUCache, QueryCache, timeout_class
from .executor import DEFAULT_TENANT, ServingExecutor, TokenBucket
from .service import ManagedSession, QueryService, ServingStats

__all__ = [
    "CacheStats",
    "LRUCache",
    "MISS",
    "QueryCache",
    "timeout_class",
    "DEFAULT_TENANT",
    "ServingExecutor",
    "TokenBucket",
    "ManagedSession",
    "QueryService",
    "ServingStats",
]
