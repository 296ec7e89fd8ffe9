"""The concurrent query service: many analysts, one shared store.

:class:`QueryService` is the serving-layer front door.  It owns

* one shared :class:`~repro.store.Endpoint` (wired with a
  :class:`~repro.serving.cache.QueryCache` unless caching is disabled),
  whose read-write lock lets any number of concurrent queries share the
  store while :meth:`QueryService.mutate` runs exclusively,
* the :class:`~repro.serving.executor.ServingExecutor` every queued
  request runs on — in-process submissions on the default tenant's lane,
  HTTP requests on their tenant's — with the one request deadline and
  per-lane bound,
* the one session table, multiplexing many
  :class:`~repro.core.session.ExplorationSession` instances — one per
  analyst, scoped to its tenant — over the shared endpoint, and
* aggregate serving statistics: request counts, throughput, p50/p95
  latency, and the cache hit rate — read off the endpoint's own counters,
  so they cover every query the store answered, whoever issued it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ServiceShutdownError, ServingError
from ..store.dataset import GraphView
from ..store.endpoint import DEFAULT_TIMEOUT, Endpoint
from ..store.graph import Graph
from .cache import QueryCache
from .executor import DEFAULT_TENANT, ServingExecutor

if TYPE_CHECKING:
    from ..core.session import ExplorationSession

__all__ = ["ManagedSession", "QueryService", "ServingStats"]


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
    :class:`~repro.resilience.ResilientEndpoint` as ``target``; the cache
    is attached to the endpoint at the bottom of any such decorator chain.
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
        if isinstance(target, (Graph, GraphView)):
            target = Endpoint(target, default_timeout=default_timeout)
        # An Endpoint, or anything endpoint-shaped (a FaultInjector, a
        # ResilientEndpoint, ...): decorators pass the cache down the chain.
        self._endpoint = target
        if cache is not None and target.cache is None:
            target.cache = cache
        self.cache = target.cache
        self.request_deadline = request_deadline
        self._executor = ServingExecutor(workers=workers, max_queue=max_queue)
        self._sessions_lock = threading.Lock()
        self._started_at = time.monotonic()
        self._sessions: dict[str, ManagedSession] = {}
        self._session_seq = 0
        self._vgraphs: dict[object, object] = {}
        self._vgraph_lock = threading.Lock()
        self._closed = False

    # -- direct querying ---------------------------------------------------

    @property
    def endpoint(self):
        """The endpoint the service was given (or built over a graph)."""
        return self._endpoint

    @property
    def executor(self) -> ServingExecutor:
        """The shared worker pool and its tenant lanes."""
        return self._executor

    def execute(self, text: str, timeout=DEFAULT_TIMEOUT):
        """Run one query string synchronously on the caller's thread."""
        self._check_open()
        return self._endpoint.query(text, timeout=timeout)

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
            timeout = self._endpoint.default_timeout
        return self.dispatch(self._endpoint.query, text, timeout=timeout)

    def mutate(self, fn):
        """Apply ``fn(graph)`` under the endpoint's write lock
        (:meth:`~repro.store.Endpoint.mutate`); returns its result."""
        self._check_open()
        return self._endpoint.mutate(fn)

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
                vgraph = VirtualSchemaGraph.bootstrap(self._endpoint, observation_class)
                self._vgraphs[observation_class] = vgraph
            return vgraph

    def open_session(self, observation_class, session_id: str | None = None,
                     endpoint=None, tenant: str = DEFAULT_TENANT,
                     **session_kwargs) -> str:
        """Create a managed exploration session for ``tenant``; returns
        its id.

        ``endpoint`` overrides the session's query interface — the HTTP
        front-end passes a per-tenant resilient decorator over the shared
        endpoint here (own breaker, own retry budget).
        """
        self._check_open()
        from ..core.session import ExplorationSession

        vgraph = self.vgraph(observation_class)
        session = ExplorationSession(
            endpoint if endpoint is not None else self._endpoint,
            vgraph, **session_kwargs)
        with self._sessions_lock:
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
        with self._sessions_lock:
            return self._find(session_id, tenant)

    def session(self, session_id: str, tenant: str = DEFAULT_TENANT):
        """The ExplorationSession behind one of ``tenant``'s session ids."""
        return self.managed_session(session_id, tenant).session

    def close_session(self, session_id: str,
                      tenant: str = DEFAULT_TENANT) -> None:
        with self._sessions_lock:
            del self._sessions[self._find(session_id, tenant).id]

    def session_ids(self, tenant: str = DEFAULT_TENANT) -> list[str]:
        with self._sessions_lock:
            return sorted(sid for sid, managed in self._sessions.items()
                          if managed.tenant == tenant)

    # -- statistics --------------------------------------------------------

    def stats(self) -> ServingStats:
        """Serving figures over the endpoint's counters: ``requests`` is
        every SELECT/ASK/CONSTRUCT and keyword lookup the store answered
        (cache hits included)."""
        endpoint = self._endpoint.stats.snapshot()
        with self._sessions_lock:
            open_sessions = len(self._sessions)
        requests = endpoint.total_queries + endpoint.keyword_lookups
        latencies = sorted(endpoint.latencies)
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        return ServingStats(
            requests=requests,
            errors=endpoint.errors,
            timeouts=endpoint.timeouts,
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
        with self._sessions_lock:
            self._sessions.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        state = "shutdown" if self._closed else "running"
        return (f"<QueryService {state}: {self._executor.workers} workers, "
                f"{len(self._sessions)} sessions>")
