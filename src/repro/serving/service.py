"""The concurrent query service: many analysts, one shared store.

:class:`QueryService` is the serving-layer front door.  It owns

* one shared :class:`~repro.store.Endpoint` (wired with a
  :class:`~repro.serving.cache.QueryCache` unless caching is disabled),
* a :class:`~repro.serving.executor.RWLock` so any number of concurrent
  queries share the store while mutations run exclusively,
* the :class:`~repro.serving.executor.ServingExecutor` every queued
  request runs on — in-process submissions on the default tenant's lane,
  HTTP requests on their tenant's — with the one request deadline and
  per-lane bound,
* the one session table, multiplexing many
  :class:`~repro.core.session.ExplorationSession` instances — one per
  analyst, scoped to its tenant — over the shared endpoint, and
* aggregate serving statistics: request counts, throughput, p50/p95
  latency, and the cache hit rate.

Every query issued through the service — directly via :meth:`execute` /
:meth:`submit`, or indirectly by a managed exploration session — passes
through a guarded endpoint proxy that takes the read lock and records the
request's latency, so the stats cover the whole mixed workload.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import QueryTimeoutError, ServiceShutdownError, ServingError
from ..store.dataset import GraphView
from ..store.endpoint import DEFAULT_TIMEOUT, Endpoint
from ..store.graph import Graph
from .cache import QueryCache
from .executor import DEFAULT_TENANT, RWLock, ServingExecutor

if TYPE_CHECKING:
    from ..core.session import ExplorationSession

__all__ = ["ManagedSession", "QueryService", "ServingStats"]

#: How many recent request latencies feed the percentile estimates.
_LATENCY_WINDOW = 8192


@dataclass
class ServingStats:
    """A point-in-time snapshot of the service's aggregate behaviour."""

    requests: int
    errors: int
    timeouts: int
    open_sessions: int
    uptime: float
    throughput: float  # completed requests / second of uptime
    p50_latency: float  # seconds; 0.0 before any request completes
    p95_latency: float
    cache_hit_rate: float

    def pretty(self) -> str:
        return "\n".join([
            f"requests        {self.requests}",
            f"errors          {self.errors} ({self.timeouts} timeouts)",
            f"open sessions   {self.open_sessions}",
            f"uptime          {self.uptime:.1f}s",
            f"throughput      {self.throughput:.1f} req/s",
            f"latency p50     {self.p50_latency * 1000:.2f}ms",
            f"latency p95     {self.p95_latency * 1000:.2f}ms",
            f"cache hit rate  {self.cache_hit_rate * 100:.1f}%",
        ])


@dataclass
class ManagedSession:
    """One entry of the session table: an exploration and its bookkeeping."""

    id: str
    tenant: str
    session: ExplorationSession
    observation_class: str
    #: serializes the steps of one dialogue across worker threads
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: last refinement menu per kind, so ``apply`` indexes stay stable
    #: between a ``refinements`` call and the follow-up ``apply``.
    proposals: dict[str, list] = field(default_factory=dict)
    steps_taken: int = 0


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, min(len(sorted_values) - 1,
                       round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


class _GuardedEndpoint:
    """Endpoint proxy: read-locks the store and meters every query.

    Duck-types the :class:`~repro.store.Endpoint` query surface, so the
    exploration session, REOLAP, and the refinement operators can run
    against it unchanged.  Each call holds the service's read lock for the
    duration of evaluation — mutations submitted through
    :meth:`QueryService.mutate` wait for in-flight queries and vice versa.
    """

    def __init__(self, service: "QueryService", inner: Endpoint):
        self._service = service
        self._inner = inner

    # Endpoint attributes the analytics layer reads directly.
    @property
    def graph(self):
        return self._inner.graph

    @property
    def stats(self):
        return self._inner.stats

    @property
    def default_timeout(self):
        return self._inner.default_timeout

    @property
    def cache(self):
        return self._inner.cache

    @property
    def text_index(self):
        with self._service._rwlock.read_locked():
            return self._inner.text_index

    @property
    def resilience(self):
        """Resilience counters when the inner endpoint is resilient."""
        return getattr(self._inner, "resilience", None)

    @property
    def breaker(self):
        """The circuit breaker when the inner endpoint has one."""
        return getattr(self._inner, "breaker", None)

    @property
    def events(self):
        """Injected-fault log when the chain ends in a fault injector."""
        return getattr(self._inner, "events", [])

    def _metered(self, fn, *args, **kwargs):
        start = time.monotonic()
        try:
            with self._service._rwlock.read_locked():
                result = fn(*args, **kwargs)
        except QueryTimeoutError:
            self._service._record(time.monotonic() - start, timeout=True)
            raise
        except Exception:
            self._service._record(time.monotonic() - start, error=True)
            raise
        self._service._record(time.monotonic() - start)
        return result

    def select(self, query, timeout=DEFAULT_TIMEOUT):
        return self._metered(self._inner.select, query, timeout=timeout)

    def ask(self, query, timeout=DEFAULT_TIMEOUT):
        return self._metered(self._inner.ask, query, timeout=timeout)

    def ask_batch(self, queries, timeout=DEFAULT_TIMEOUT):
        # One metered call (and one read-lock hold) for the whole batch.
        return self._metered(self._inner.ask_batch, queries, timeout=timeout)

    def construct(self, query, timeout=DEFAULT_TIMEOUT):
        return self._metered(self._inner.construct, query, timeout=timeout)

    def query(self, text, timeout=DEFAULT_TIMEOUT):
        return self._metered(self._inner.query, text, timeout=timeout)

    def resolve_keyword(self, keyword, exact=True):
        return self._metered(self._inner.resolve_keyword, keyword, exact=exact)

    def refresh_text_index(self):
        with self._service._rwlock.write_locked():
            self._inner.refresh_text_index()

    # Reuse Endpoint's probe logic; its self.ask/self.select calls come
    # back through this proxy, so each leg takes the read lock separately
    # (the RWLock is not reentrant).
    is_non_empty = Endpoint.is_non_empty

    def __repr__(self) -> str:
        return f"<GuardedEndpoint over {self._inner!r}>"


class QueryService:
    """Serves concurrent query and exploration traffic over one store.

    Construct it from a :class:`~repro.store.Graph` / ``GraphView`` (an
    endpoint is built internally) or from an existing endpoint::

        service = QueryService(graph, workers=8)
        rows = service.execute("SELECT ?s WHERE { ?s ?p ?o }")
        future = service.submit("ASK { ?s a ?c }")
        sid = service.open_session(OBSERVATION_CLASS)
        service.session(sid).synthesize("Germany", "2014")
        print(service.stats().pretty())
        service.shutdown()

    ``cache=None`` with ``cache_size > 0`` (the default) builds a
    :class:`QueryCache`; pass ``cache_size=0`` to serve uncached.
    ``max_queue`` bounds each tenant's lane of waiting requests, and
    ``request_deadline`` (seconds, queueing included) caps every queued
    request.  Retries and circuit breaking come from passing a
    :class:`~repro.resilience.ResilientEndpoint` as ``target``.
    """

    def __init__(
        self,
        target: Graph | GraphView | Endpoint,
        workers: int = 4,
        max_queue: int = 64,
        cache: QueryCache | None = None,
        cache_size: int = 4096,
        default_timeout: float | None = None,
        request_deadline: float | None = None,
    ):
        if cache is None and cache_size > 0:
            cache = QueryCache(max_results=cache_size)
        self.cache = cache
        if isinstance(target, (Graph, GraphView)):
            self._endpoint = Endpoint(
                target, default_timeout=default_timeout, cache=cache)
        else:
            # An Endpoint, or anything endpoint-shaped (a FaultInjector,
            # a ResilientEndpoint, ...).
            self._endpoint = target
            if (cache is not None and target.cache is None
                    and isinstance(target, Endpoint)):
                target.cache = cache
            else:
                self.cache = target.cache
        self.request_deadline = request_deadline
        self._rwlock = RWLock()
        self._executor = ServingExecutor(workers=workers, max_queue=max_queue)
        self._guarded = _GuardedEndpoint(self, self._endpoint)
        self._stats_lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._requests = 0
        self._errors = 0
        self._timeouts = 0
        self._started_at = time.monotonic()
        self._sessions: dict[str, ManagedSession] = {}
        self._session_seq = 0
        self._vgraphs: dict[object, object] = {}
        self._vgraph_lock = threading.Lock()
        self._closed = False

    # -- direct querying ---------------------------------------------------

    @property
    def endpoint(self) -> _GuardedEndpoint:
        """The metered, read-locked endpoint facade."""
        return self._guarded

    @property
    def executor(self) -> ServingExecutor:
        """The shared worker pool and its tenant lanes."""
        return self._executor

    def execute(self, text: str, timeout=DEFAULT_TIMEOUT):
        """Run one query string synchronously on the caller's thread."""
        self._check_open()
        return self._guarded.query(text, timeout=timeout)

    def dispatch(self, fn, /, *args, tenant: str = DEFAULT_TENANT, **kwargs):
        """Queue ``fn(*args, **kwargs)`` on ``tenant``'s lane; returns a
        Future.  With a ``request_deadline`` configured, time spent queued
        counts against the request's evaluation budget."""
        deadline = (
            None
            if self.request_deadline is None
            else time.monotonic() + self.request_deadline
        )
        return self._executor.submit(fn, *args, tenant=tenant,
                                     deadline=deadline, **kwargs)

    def submit(self, text: str, timeout=DEFAULT_TIMEOUT):
        """Queue one query string on the default tenant's lane.

        Raises :class:`~repro.errors.AdmissionError` when the lane is full.

        The ``DEFAULT_TIMEOUT`` sentinel is resolved to the endpoint's
        configured default *before* submission: the executor's deadline
        composition takes the minimum of the evaluation timeout and the
        remaining queue budget, and that minimum is only meaningful over
        the resolved value.  (Previously the sentinel was replaced by the
        remaining deadline outright, silently extending a request past
        the endpoint's default.)  Explicit ``timeout=0`` and
        ``timeout=None`` pass through literally — ``0`` is an
        already-expired budget, ``None`` disables the evaluation timeout
        and leaves only the request deadline.
        """
        self._check_open()
        if timeout is DEFAULT_TIMEOUT:
            timeout = self._guarded.default_timeout
        return self.dispatch(self._guarded.query, text, timeout=timeout)

    def mutate(self, fn):
        """Apply ``fn(graph)`` under the write lock; returns its result.

        The graph's epoch counter advances with each mutation, so all
        cached results for the old state become unreachable atomically
        once the write lock is released.
        """
        self._check_open()
        with self._rwlock.write_locked():
            return fn(self._endpoint.graph)

    # -- session management ------------------------------------------------

    def vgraph(self, observation_class):
        """The shared virtual schema graph for an observation class.

        Bootstrapped on first use and reused by every session over the
        same class — the bootstrap crawl itself runs through the cache,
        so concurrent session creation after the first is cheap.
        """
        from ..core.virtual_graph import VirtualSchemaGraph

        with self._vgraph_lock:
            vgraph = self._vgraphs.get(observation_class)
            if vgraph is None:
                vgraph = VirtualSchemaGraph.bootstrap(self._guarded, observation_class)
                self._vgraphs[observation_class] = vgraph
            return vgraph

    def open_session(self, observation_class, session_id: str | None = None,
                     endpoint=None, tenant: str = DEFAULT_TENANT,
                     **session_kwargs) -> str:
        """Create a managed exploration session for ``tenant``; returns
        its id.

        ``endpoint`` overrides the session's query interface — the HTTP
        front-end passes a per-tenant resilient decorator *over* the
        guarded endpoint here, so tenant isolation (own breaker, own
        retry budget) composes with the shared metering and read lock.
        """
        self._check_open()
        from ..core.session import ExplorationSession

        vgraph = self.vgraph(observation_class)
        session = ExplorationSession(
            endpoint if endpoint is not None else self._guarded,
            vgraph, **session_kwargs)
        with self._stats_lock:
            if session_id is None:
                self._session_seq += 1
                session_id = f"s{self._session_seq}"
            if session_id in self._sessions:
                raise ServingError(f"session {session_id!r} already open")
            self._sessions[session_id] = ManagedSession(
                session_id, tenant, session, str(observation_class))
        return session_id

    def _find(self, session_id: str, tenant: str) -> ManagedSession:
        managed = self._sessions.get(session_id)
        # A foreign tenant's session id answers exactly like a missing one:
        # existence must not leak across tenants.
        if managed is None or managed.tenant != tenant:
            raise ServingError(f"no open session {session_id!r}")
        return managed

    def managed_session(self, session_id: str,
                        tenant: str = DEFAULT_TENANT) -> ManagedSession:
        """The table entry of one of ``tenant``'s sessions."""
        with self._stats_lock:
            return self._find(session_id, tenant)

    def session(self, session_id: str, tenant: str = DEFAULT_TENANT):
        """The ExplorationSession behind one of ``tenant``'s session ids."""
        return self.managed_session(session_id, tenant).session

    def close_session(self, session_id: str,
                      tenant: str = DEFAULT_TENANT) -> None:
        with self._stats_lock:
            del self._sessions[self._find(session_id, tenant).id]

    def session_ids(self, tenant: str = DEFAULT_TENANT) -> list[str]:
        with self._stats_lock:
            return sorted(sid for sid, managed in self._sessions.items()
                          if managed.tenant == tenant)

    # -- statistics --------------------------------------------------------

    def _record(self, elapsed: float, error: bool = False,
                timeout: bool = False) -> None:
        with self._stats_lock:
            self._requests += 1
            self._latencies.append(elapsed)
            if timeout:
                self._timeouts += 1
                self._errors += 1
            elif error:
                self._errors += 1

    def stats(self) -> ServingStats:
        with self._stats_lock:
            latencies = sorted(self._latencies)
            requests = self._requests
            errors = self._errors
            timeouts = self._timeouts
            open_sessions = len(self._sessions)
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        return ServingStats(
            requests=requests,
            errors=errors,
            timeouts=timeouts,
            open_sessions=open_sessions,
            uptime=uptime,
            throughput=requests / uptime,
            p50_latency=_percentile(latencies, 0.50),
            p95_latency=_percentile(latencies, 0.95),
            cache_hit_rate=self.cache.hit_rate if self.cache else 0.0,
        )

    # -- lifecycle ---------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceShutdownError("query service has been shut down")

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting work, drain the pool, drop all sessions."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=wait)
        with self._stats_lock:
            self._sessions.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        state = "shutdown" if self._closed else "running"
        return (f"<QueryService {state}: {self._executor.workers} workers, "
                f"{len(self._sessions)} sessions, {self._requests} requests>")
