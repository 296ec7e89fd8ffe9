"""SPARQL endpoint facade over the in-process store.

The paper's server talks to a triplestore exclusively through a SPARQL
endpoint (Virtuoso in their experiments).  :class:`Endpoint` reproduces
that boundary: REOLAP and the refinement operators only ever see this
interface, so they remain agnostic of how the data is stored — exactly the
"standard SPARQL interfaces (with non-specialized RDF stores)" property the
paper claims.  The facade adds what a real endpoint provides:

* query-string entry points (text in, result set out);
* a configurable evaluation timeout (the paper's Similarity experiment hit
  a 15-minute Virtuoso timeout on DBpedia; ours is configurable per call);
* a full-text keyword-resolution service backed by :class:`TextIndex`
  (standing in for Virtuoso's text index, Section 7.1);
* query statistics, which the benchmark harness uses to count round-trips;
* an optional result cache (:class:`~repro.serving.cache.QueryCache`),
  keyed by query text and the graph's epoch counter, standing in for the
  result reuse real endpoints get from their buffer pools.

The endpoint owns the store's :class:`RWLock`: every query takes the read
side, :meth:`Endpoint.mutate` and :meth:`Endpoint.refresh_text_index` the
write side, so one endpoint may be shared by the serving layer's worker
threads while writes run exclusively.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from ..errors import QueryTimeoutError
from ..rdf.terms import IRI, Literal, Node
from ..sparql.ast import AskQuery, ConstructQuery, Query, SelectQuery
from ..sparql.batch import simple_bgp as _simple_bgp
from ..sparql.eval import Evaluator
from ..sparql.parser import parse_query
from ..sparql.results import ResultSet
from .dataset import GraphView
from .graph import Graph
from .text_index import TextIndex

__all__ = ["DEFAULT_TIMEOUT", "Endpoint", "EndpointStats", "RWLock"]

#: How many recent call latencies feed the serving percentile estimates.
_LATENCY_WINDOW = 8192


class _DefaultTimeout:
    """Sentinel meaning "use the endpoint's default timeout".

    Distinct from ``None`` (explicitly *no* timeout) and from ``0`` (an
    already-expired deadline), both of which are legitimate overrides that
    a truthiness test would silently swallow.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "DEFAULT_TIMEOUT"

    def __reduce__(self):
        return (_DefaultTimeout, ())


#: Default value of every ``timeout=`` parameter on the endpoint surface.
DEFAULT_TIMEOUT = _DefaultTimeout()

#: The union accepted by endpoint ``timeout=`` parameters.
TimeoutArg = "float | None | _DefaultTimeout"


class RWLock:
    """A read-write lock: many concurrent readers, one exclusive writer.

    Writer-preferring: once a writer is waiting, new readers block, so
    mutations cannot starve under a steady query stream.  Not reentrant —
    a thread must not acquire the lock (either side) while holding it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._lock:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._lock:
            self._readers -= 1
            # Only a writer waits on the reader count.
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    @contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        with self._lock:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._lock:
                self._writer = False
                self._cond.notify_all()


@dataclass
class EndpointStats:
    """Counters accumulated across an endpoint's lifetime.

    The instance owns its lock: every mutation (:meth:`add`,
    :meth:`reset`) and the consistent read path (:meth:`snapshot`) go
    through it, so one stats object can be shared by all serving worker
    threads.  Reading individual attributes without the lock is still
    fine for monitoring — ints are atomic to read — but cross-counter
    invariants should use :meth:`snapshot`.
    """

    select_queries: int = 0
    ask_queries: int = 0
    construct_queries: int = 0
    keyword_lookups: int = 0
    timeouts: int = 0
    errors: int = 0  #: calls that raised, timeouts included
    cache_hits: int = 0
    batch_asks: int = 0  #: ask_batch round-trips (each covers many ASKs)
    batch_shared_steps: int = 0  #: join steps deduplicated by prefix sharing
    fused_aggregates: int = 0  #: aggregate SELECTs run on the fused id-space path
    fallback_aggregates: int = 0  #: aggregate SELECTs run on the term-space path
    compiled_selects: int = 0  #: non-aggregate SELECTs run on the compiled engine
    fallback_selects: int = 0  #: non-aggregate SELECTs run on the term-space path
    batched_executions: int = 0  #: compiled plans run block-at-a-time (vectorized)
    tuple_executions: int = 0  #: compiled plans run tuple-at-a-time
    #: rows a batched plan sent through the per-row tuple fallback
    fallback_batch_rows: int = 0
    groups_formed: int = 0  #: groups the fused aggregation finished
    aggregate_rows: int = 0  #: body rows the fused aggregation folded into groups
    #: why the compiler declined, tallied by the first decline reason string
    #: (covers both plain-SELECT and aggregate fallbacks)
    decline_reasons: dict = field(default_factory=dict, compare=False)
    #: seconds taken by the most recent calls, lock wait included
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW), repr=False,
        compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def total_queries(self) -> int:
        return self.select_queries + self.ask_queries + self.construct_queries

    def add(self, counter: str, n: int = 1) -> None:
        """Atomically increment one counter."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def add_decline(self, reason: str) -> None:
        """Atomically tally one compilation decline under its reason."""
        with self._lock:
            self.decline_reasons[reason] = self.decline_reasons.get(reason, 0) + 1

    def record(self, elapsed: float) -> None:
        """Atomically log one call's latency."""
        with self._lock:
            self.latencies.append(elapsed)

    def snapshot(self) -> "EndpointStats":
        """A consistent point-in-time copy (no torn multi-counter reads)."""
        with self._lock:
            copy = EndpointStats(**{name: getattr(self, name) for name in COUNTERS})
            copy.decline_reasons = dict(self.decline_reasons)
            copy.latencies.extend(self.latencies)
            return copy

    def reset(self) -> None:
        """Zero every counter atomically with respect to :meth:`add`."""
        with self._lock:
            for name in COUNTERS:
                setattr(self, name, 0)
            self.decline_reasons = {}
            self.latencies.clear()


#: The integer counters of :class:`EndpointStats`, in declaration order.
COUNTERS = tuple(f.name for f in fields(EndpointStats) if f.default == 0)


class Endpoint:
    """The query interface the analytics layer is written against.

    ``cache`` (a :class:`~repro.serving.cache.QueryCache`) enables result
    reuse: SELECT/ASK/CONSTRUCT outcomes and keyword resolutions are keyed
    by ``(query text, graph uid + epoch, timeout class)``, so any graph
    mutation makes every previously cached answer unreachable — and a
    cache shared by endpoints over different graphs keeps their entries
    apart.  Queries that time
    out are never cached.  The stats counters count *calls*, cached or
    not; ``cache_hits`` says how many were answered without evaluation.

    Only the leaves — the cached SELECT/ASK/CONSTRUCT path, the batch leg
    of :meth:`ask_batch`, :meth:`resolve_keyword` and the lazy text-index
    build — take the read lock, and each leaf call records its latency
    (and its failure) in ``stats``.  The composites (:meth:`query`,
    :meth:`is_non_empty`, the per-query fallback of :meth:`ask_batch`)
    call back into ``self`` and hold no lock, since :class:`RWLock` is
    not reentrant.
    """

    def __init__(
        self,
        graph: Graph | GraphView,
        default_timeout: float | None = None,
        optimize: bool = True,
        compile: bool = True,
        text_index: TextIndex | None = None,
        cache: "QueryCache | None" = None,
        vectorize: bool = True,
        batch_size: int | None = None,
        parallel: int | None = None,
    ):
        self.graph = graph
        self.default_timeout = default_timeout
        self.stats = EndpointStats()
        self._evaluator = Evaluator(
            graph,
            optimize=optimize,
            compile=compile,
            stats=self.stats,
            vectorize=vectorize,
            batch_size=batch_size,
            parallel=parallel,
        )
        self._text_index = text_index
        self._cache = None
        self.cache = cache
        self._lock = threading.Lock()
        self._rwlock = RWLock()

    @property
    def cache(self) -> "QueryCache | None":
        return self._cache

    @cache.setter
    def cache(self, cache: "QueryCache | None") -> None:
        """Attach a cache, wiring its plan tier into the evaluator.

        The plan tier lets repeated pattern sequences (refinement menus,
        REOLAP probes) skip join ordering and BGP compilation; caches
        without one (plain LRU substitutes in tests) leave the evaluator's
        per-instance behaviour unchanged.
        """
        self._cache = cache
        self._evaluator.plan_cache = getattr(cache, "plans", None)

    # -- cache plumbing -----------------------------------------------------

    def _version(self) -> tuple | None:
        """``(graph uid, epoch)`` tag for cache keys, or None if uncacheable.

        Results over an un-versioned graph are never cached — without an
        epoch there is no way to invalidate them.  The uid carries the
        graph's identity: a cache shared between endpoints over different
        graphs must never answer one graph's query from the other's data,
        even when their epochs coincide.
        """
        epoch = getattr(self.graph, "epoch", None)
        uid = getattr(self.graph, "uid", None)
        if epoch is None or uid is None:
            return None
        return (uid, epoch)

    def _parse(self, text: str) -> Query:
        """Parse a query string, reusing the cache's AST tier when present."""
        from ..serving.cache import MISS

        if self.cache is None:
            return parse_query(text)
        parsed = self.cache.get_ast(text)
        if parsed is MISS:
            parsed = parse_query(text)
            self.cache.put_ast(text, parsed)
        return parsed

    def _result_key(self, query, kind: str, timeout: float | None):
        """Cache key for one call, or None when this call is uncacheable."""
        if self.cache is None:
            return None
        version = self._version()
        if version is None:
            return None
        text = query if isinstance(query, str) else query.to_sparql()
        return self.cache.result_key(text, version, timeout, kind)

    def _count(self, counter: str, n: int = 1) -> None:
        self.stats.add(counter, n)

    def _leaf(self, body, *args, **kwargs):
        """Run one store call ``body(*args, **kwargs)`` under the read lock,
        recording its latency (lock wait included) and its failure."""
        start = time.perf_counter()
        self._rwlock.acquire_read()
        try:
            return body(*args, **kwargs)
        except Exception:
            self._count("errors")
            raise
        finally:
            self._rwlock.release_read()
            self.stats.record(time.perf_counter() - start)

    def mutate(self, fn):
        """Apply ``fn(graph)`` exclusively of every query; returns its result.

        The graph's epoch counter advances with each mutation, so all
        cached results for the old state become unreachable atomically
        once the write lock is released.
        """
        with self._rwlock.write_locked():
            return fn(self.graph)

    def _resolve_timeout(self, timeout) -> float | None:
        """Apply the default-timeout sentinel.

        ``DEFAULT_TIMEOUT`` (the parameter default) means "use the
        endpoint's configured default"; any other value — including
        ``None`` (disable the default) and ``0`` (already expired) — is
        taken literally.
        """
        return self.default_timeout if timeout is DEFAULT_TIMEOUT else timeout

    # -- querying -----------------------------------------------------------

    def _cached(self, kind: str, query, timeout, evaluate,
                store=lambda result: result, load=lambda value: value):
        """The one cached-call leaf behind :meth:`select`/:meth:`ask`/
        :meth:`construct`: count the call, look the result up, else
        evaluate and cache it.  ``store`` turns a fresh result into its
        cached form; ``load`` turns a cached value into the caller's copy.
        Run under one read-lock hold, so a put can never pair an old epoch
        with new data.
        """
        from ..serving.cache import MISS

        self._count(f"{kind}_queries")
        timeout = self._resolve_timeout(timeout)
        key = self._result_key(query, kind, timeout)
        if key is not None:
            cached = self.cache.get_result(key)
            if cached is not MISS:
                self._count("cache_hits")
                return load(cached)
        if isinstance(query, str):
            query = self._parse(query)
        try:
            result = evaluate(query, timeout=timeout)
        except QueryTimeoutError:
            self._count("timeouts")
            raise
        if key is not None:
            self.cache.put_result(key, store(result))
        return result

    def select(self, query: SelectQuery | str, timeout=DEFAULT_TIMEOUT) -> ResultSet:
        """Run a SELECT query (AST or text)."""
        # Copy: ResultSet rows/variables are mutable lists and the cached
        # instance must survive caller-side edits.
        return self._leaf(self._cached, "select", query, timeout,
                          self._evaluator.select,
                          load=lambda cached: ResultSet(cached.variables,
                                                        cached.rows))

    def ask(self, query: AskQuery | str, timeout=DEFAULT_TIMEOUT) -> bool:
        """Run an ASK query (AST or text)."""
        return self._leaf(self._cached, "ask", query, timeout,
                          self._evaluator.ask)

    def construct(self, query: ConstructQuery | str, timeout=DEFAULT_TIMEOUT):
        """Run a CONSTRUCT query; returns a new :class:`Graph`."""
        # Cached as a triple tuple; each hit gets a private graph.
        return self._leaf(self._cached, "construct", query, timeout,
                          self._evaluator.construct,
                          store=lambda graph: tuple(graph.triples()),
                          load=lambda triples: Graph(triples=triples))

    def query(self, text: str, timeout=DEFAULT_TIMEOUT):
        """Parse and dispatch a query string.

        SELECT → ResultSet, ASK → bool, CONSTRUCT → Graph.
        """
        parsed: Query = self._parse(text)
        if isinstance(parsed, AskQuery):
            return self.ask(parsed, timeout=timeout)
        if isinstance(parsed, ConstructQuery):
            return self.construct(parsed, timeout=timeout)
        return self.select(parsed, timeout=timeout)

    def ask_batch(
        self, queries: list[AskQuery | str], timeout=DEFAULT_TIMEOUT
    ) -> list[bool]:
        """Answer many ASK queries in one round-trip, sharing common work.

        Queries whose WHERE clause is a pure BGP are compiled and merged
        into a prefix trie (:mod:`repro.sparql.batch`), so candidates that
        agree on leading patterns — REOLAP's validation workload — probe
        the shared prefix once for the whole batch.  Cached answers are
        reused and fresh ones cached, exactly as :meth:`ask` does; queries
        the batch engine cannot take (filters, property paths, no id
        backend, or ``compile=False``) fall back to individual ASKs.
        Returns verdicts aligned with the input list.
        """
        if not queries:
            return []
        timeout = self._resolve_timeout(timeout)
        parsed = [self._parse(q) if isinstance(q, str) else q for q in queries]
        results = self._leaf(self._batch_leg, parsed, timeout)
        # Whatever the batch engine could not decide goes the normal route
        # (which does its own locking, counting and caching).
        return [
            self.ask(parsed[index], timeout=timeout) if verdict is None else verdict
            for index, verdict in enumerate(results)
        ]

    def _batch_leg(self, parsed: list, timeout) -> list[bool | None]:
        """The leaf of :meth:`ask_batch`: cached verdicts, then one shared
        batch walk; ``None`` where neither decided."""
        from ..serving.cache import MISS

        results: list[bool | None] = [None] * len(parsed)
        keys = []
        for index, query in enumerate(parsed):
            key = self._result_key(query, "ask", timeout)
            keys.append(key)
            if key is not None:
                cached = self.cache.get_result(key)
                if cached is not MISS:
                    self._count("ask_queries")
                    self._count("cache_hits")
                    results[index] = cached

        batchable: list[int] = []
        bgps = []
        if self._evaluator.compile:
            for index, query in enumerate(parsed):
                if results[index] is not None:
                    continue
                patterns = None if not isinstance(query, AskQuery) else _simple_bgp(query.where)
                if patterns is not None:
                    batchable.append(index)
                    bgps.append(patterns)
        if bgps:
            from ..sparql.batch import ask_bgp_batch, order_batch

            self._count("batch_asks")
            bgps = order_batch(self.graph, bgps, optimize=self._evaluator.optimize)
            try:
                verdicts, batch_stats = ask_bgp_batch(self.graph, bgps, timeout=timeout)
            except QueryTimeoutError:
                # The shared walk ran N candidates under one deadline, so a
                # large batch can exhaust it even when every candidate is
                # individually cheap.  Leave the batch undecided: ask_batch
                # re-asks each candidate with its own timeout budget,
                # matching the per-probe behaviour of unbatched validation.
                self._count("timeouts")
            else:
                self._count("batch_shared_steps", batch_stats.steps_shared)
                for index, verdict in zip(batchable, verdicts):
                    if verdict is None:
                        continue  # not compilable after all: individual fallback
                    self._count("ask_queries")
                    results[index] = verdict
                    if keys[index] is not None:
                        self.cache.put_result(keys[index], verdict)
        return results

    def is_non_empty(self, query: SelectQuery, timeout=DEFAULT_TIMEOUT) -> bool:
        """Whether a SELECT query has at least one result.

        This is REOLAP's per-candidate correctness check (Section 5.3):
        every reverse-engineered query must return a non-empty result.
        Without HAVING constraints a grouped query is non-empty exactly
        when its WHERE clause has a solution, so the probe is an ASK over
        the pattern — sparing the aggregate computation.  With HAVING the
        full query runs with LIMIT 1.
        """
        if not query.having:
            return self.ask(AskQuery(query.where), timeout=timeout)
        probe = SelectQuery(
            projections=query.projections,
            where=query.where,
            distinct=query.distinct,
            group_by=query.group_by,
            having=query.having,
            order_by=(),
            limit=1,
            offset=None,
            select_all=query.select_all,
        )
        return bool(self.select(probe, timeout=timeout))

    # -- keyword resolution -----------------------------------------------------

    @property
    def text_index(self) -> TextIndex:
        """The full-text index, built lazily on first keyword lookup."""
        with self._rwlock.read_locked():
            return self._index()

    def _index(self) -> TextIndex:
        """The text index; the caller holds the read lock.

        Double-checked under the endpoint mutex so concurrent first
        lookups build it exactly once.
        """
        index = self._text_index
        if index is None:
            with self._lock:
                index = self._text_index
                if index is None:
                    index = TextIndex.from_graph(self.graph)
                    self._text_index = index
        return index

    def resolve_keyword(self, keyword: str, exact: bool = True) -> list[tuple[Node, IRI, Literal]]:
        """Entities whose literal attributes match a user keyword.

        Returns (entity, attribute predicate, matched literal) triples —
        the raw material of Algorithm 1's MATCHES step.
        """
        return self._leaf(self._resolve_keyword, keyword, exact)

    def _resolve_keyword(self, keyword: str, exact: bool) -> list:
        self._count("keyword_lookups")
        from ..serving.cache import MISS

        key = None
        if self.cache is not None:
            version = self._version()
            if version is not None:
                key = self.cache.keyword_key(keyword, exact, version)
                cached = self.cache.get_keyword(key)
                if cached is not MISS:
                    self._count("cache_hits")
                    return list(cached)
        result = list(self._index().subjects_matching(keyword, exact=exact))
        if key is not None:
            self.cache.put_keyword(key, tuple(result))
        return result

    def refresh_text_index(self) -> None:
        """Rebuild the text index after bulk updates to the graph."""
        with self._rwlock.write_locked():
            self._text_index = TextIndex.from_graph(self.graph)

    def __repr__(self) -> str:
        return f"<Endpoint over {self.graph!r}>"
