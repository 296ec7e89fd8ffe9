"""Thread-safe multi-tier query cache for the serving layer.

Exploratory OLAP traffic is dominated by repeated, near-identical queries:
REOLAP probes every candidate for non-emptiness, refinement menus re-issue
the current query with one clause changed, and concurrent analysts explore
the same dataset.  The cache exploits that repetition at three tiers:

* **ASTs** — parsed query objects keyed by query text, so a hot query
  string is tokenized and parsed once;
* **results** — SELECT/ASK/CONSTRUCT outcomes keyed by
  ``(query text, graph uid + epoch, timeout class)``;
* **keywords** — full-text keyword resolutions keyed by
  ``(keyword, exact, graph uid + epoch)``.

Correctness hinges on the graph **epoch** (:attr:`repro.store.Graph.epoch`):
every mutation bumps it, the epoch is part of every result/keyword key, so
stale entries can never be served.  They do not linger either: the first
entry stored for a newer epoch of a graph drops that graph's older
entries, and a late put for a superseded epoch is ignored.
Each tier is an :class:`LRUCache`: an ``OrderedDict`` under a lock with
optional TTL expiry, a size cap, and hit/miss/eviction statistics.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

__all__ = ["CacheStats", "LRUCache", "QueryCache", "MISS", "timeout_class"]

#: Sentinel distinguishing "not cached" from a cached ``None``/``False``.
MISS = object()


def timeout_class(timeout: float | None) -> str:
    """Bucket a timeout value into a cache-key class.

    Results computed under different deadlines are not interchangeable (a
    tight deadline may time out where a loose one succeeds), but keying by
    the raw float would fragment the cache under jittered deadlines.  The
    class keeps ``None`` distinct and rounds finite timeouts to the
    millisecond.
    """
    return "none" if timeout is None else f"{timeout:.3f}"


@dataclass
class CacheStats:
    """Counters for one cache tier; read them via :attr:`LRUCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions,
                          self.expirations, self.puts)


class LRUCache:
    """A bounded, thread-safe LRU map with optional per-entry TTL.

    ``get`` returns :data:`MISS` on absence so that falsy values (``False``
    from ASK, empty result sets) are cacheable.  All operations take the
    internal lock, so one instance can serve many executor threads.

    ``version(key) -> (graph uid, epoch)`` marks a tier whose keys carry
    a graph version.  Such a tier holds only the newest epoch seen per
    uid: storing a newer one drops the uid's older entries (counted as
    ``expirations``), and a put for an older one is ignored.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        version: Callable[[Hashable], tuple] | None = None,
    ):
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("cache ttl must be positive (or None)")
        self.maxsize = maxsize
        self.ttl = ttl
        self._clock = clock
        self._data: OrderedDict[Hashable, tuple[Any, float | None]] = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()
        self._version = version
        #: uid -> (newest epoch, the keys stored under it)
        self._live: dict[Hashable, tuple[Any, set]] = {}

    def _admit(self, key: Hashable) -> bool:
        """Index ``key`` under its version; False if that is superseded."""
        uid, epoch = self._version(key)
        live = self._live.get(uid)
        if live is None or epoch > live[0]:
            if live is not None:
                for dead in live[1]:
                    del self._data[dead]
                self._stats.expirations += len(live[1])
            live = self._live[uid] = (epoch, set())
        elif epoch < live[0]:
            return False
        live[1].add(key)
        return True

    def _forget(self, key: Hashable) -> None:
        """Drop ``key`` from the version index (it left ``_data``)."""
        if self._version is not None:
            uid, epoch = self._version(key)
            live = self._live.get(uid)
            if live is not None and live[0] == epoch:
                live[1].discard(key)

    def get(self, key: Hashable) -> Any:
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self._stats.misses += 1
                return MISS
            value, expires_at = entry
            if expires_at is not None and self._clock() >= expires_at:
                del self._data[key]
                self._forget(key)
                self._stats.expirations += 1
                self._stats.misses += 1
                return MISS
            self._data.move_to_end(key)
            self._stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        expires_at = None if self.ttl is None else self._clock() + self.ttl
        with self._lock:
            if self._version is not None and not self._admit(key):
                return
            self._stats.puts += 1
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = (value, expires_at)
            while len(self._data) > self.maxsize:
                evicted, _ = self._data.popitem(last=False)
                self._forget(evicted)
                self._stats.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            if self._data.pop(key, None) is None:
                return False
            self._forget(key)
            return True

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._live.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key) is not MISS

    @property
    def stats(self) -> CacheStats:
        """A consistent point-in-time copy of the tier's counters."""
        with self._lock:
            return self._stats.snapshot()

    def __repr__(self) -> str:
        stats = self.stats
        return (f"<LRUCache {len(self)}/{self.maxsize} entries, "
                f"{stats.hits}h/{stats.misses}m>")


class QueryCache:
    """The endpoint-facing facade bundling the three tiers.

    Inject one into :class:`repro.store.Endpoint` (the ``cache=`` argument)
    or let :class:`repro.serving.QueryService` construct one.  One instance
    may back several endpoints, over one graph or several: result and
    keyword keys carry the graph's uid as well as its epoch, so entries of
    different graphs never answer for each other.
    """

    def __init__(
        self,
        max_asts: int = 512,
        max_results: int = 4096,
        max_keywords: int = 1024,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.asts = LRUCache(max_asts, ttl=None, clock=clock)
        self.results = LRUCache(max_results, ttl=ttl, clock=clock,
                                version=lambda key: key[1])
        self.keywords = LRUCache(max_keywords, ttl=ttl, clock=clock,
                                 version=lambda key: key[2])

    # -- tier accessors ----------------------------------------------------

    def get_ast(self, text: str) -> Any:
        return self.asts.get(text)

    def put_ast(self, text: str, query: Any) -> None:
        self.asts.put(text, query)

    def result_key(self, text: str, version, timeout: float | None,
                   kind: str) -> tuple:
        """``version`` is the caller's invalidation tag — the endpoint
        passes ``(graph uid, epoch)`` so entries are scoped to one graph
        instance and one graph state."""
        return (text, version, timeout_class(timeout), kind)

    def get_result(self, key: tuple) -> Any:
        return self.results.get(key)

    def put_result(self, key: tuple, value: Any) -> None:
        self.results.put(key, value)

    def keyword_key(self, keyword: str, exact: bool, version) -> tuple:
        return (keyword, exact, version)

    def get_keyword(self, key: tuple) -> Any:
        return self.keywords.get(key)

    def put_keyword(self, key: tuple, value: Any) -> None:
        self.keywords.put(key, value)

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        self.asts.clear()
        self.results.clear()
        self.keywords.clear()

    @property
    def stats(self) -> dict[str, CacheStats]:
        return {
            "asts": self.asts.stats,
            "results": self.results.stats,
            "keywords": self.keywords.stats,
        }

    @property
    def hit_rate(self) -> float:
        """Aggregate hit rate across the result and keyword tiers.

        The AST tier is excluded: its hits still evaluate the query, so
        counting them would overstate how much work the cache is saving.
        """
        tiers = (self.results.stats, self.keywords.stats)
        lookups = sum(t.lookups for t in tiers)
        hits = sum(t.hits for t in tiers)
        return hits / lookups if lookups else 0.0

    def __repr__(self) -> str:
        return (f"<QueryCache asts={len(self.asts)} results={len(self.results)} "
                f"keywords={len(self.keywords)} hit_rate={self.hit_rate:.2f}>")
