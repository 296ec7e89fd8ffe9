"""The SPARQL-protocol HTTP application over a :class:`QueryService`.

:class:`ReproServer` is the wiring layer: it owns an
:class:`~repro.server.http.HTTPServer` and a per-tenant table of
:class:`~repro.resilience.ResilientEndpoint` decorators (own retry
budget, own circuit breaker, own serve-stale tier — one tenant's tripped
breaker never sheds another tenant's queries).  Every request runs on its
tenant's lane of the service's worker pool, and sessions live in the
service's tenant-scoped session table.

Routes::

    GET|POST /sparql           SPARQL protocol (JSON/CSV/TSV via Accept)
    POST     /sessions         open an exploration session
    GET      /sessions         list this tenant's session ids
    GET      /sessions/{id}    session state (steps, failures, current)
    DELETE   /sessions/{id}    close a session
    POST     /sessions/{id}/steps   run one exploration step
    GET      /stats            serving/endpoint/tenant counters as JSON
    GET      /healthz          liveness probe

Error mapping (the serving contract on the wire):

    ===============================  ======  =========================
    condition                        status  extras
    ===============================  ======  =========================
    parse / malformed request        400
    unknown path or session          404
    wrong method                     405
    unsupported Accept               406
    unsupported request media type   415
    tenant quota exhausted           429     Retry-After
    lane full / shed / breaker open  503     Retry-After
    shutting down                    503     Retry-After
    evaluation timeout               504
    transient endpoint fault         503     Retry-After
    anything else                    500
    ===============================  ======  =========================

Tenancy is declared with the ``X-Repro-Tenant`` header (default
``public``).  Degraded REOLAP answers are *not* errors: they come back
``200`` with ``"degraded": true`` in the body, exactly mirroring the
in-process resilience contract.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from dataclasses import asdict

from ..errors import (
    AdmissionError,
    CircuitOpenError,
    QueryTimeoutError,
    QuotaExceededError,
    ReproError,
    RequestShedError,
    ServiceShutdownError,
    ServingError,
    SPARQLSyntaxError,
    TransientError,
)
from ..qb import OBSERVATION_CLASS
from ..rdf import IRI
from ..resilience import with_resilience
from ..serving.executor import DEFAULT_TENANT
from ..serving.service import ManagedSession, QueryService
from ..store.endpoint import COUNTERS, DEFAULT_TIMEOUT
from ..store.graph import Graph
from .http import HTTPError, HTTPServer, Request, Response
from .protocol import extract_query, negotiate
from .sessions import run_step, session_state

__all__ = ["ReproServer", "ServerHandle", "serve_in_thread"]

#: Header carrying the tenant identity; absent means the shared tenant.
TENANT_HEADER = "x-repro-tenant"


def _json_response(document: dict, status: int = 200,
                   headers: list[tuple[str, str]] | None = None) -> Response:
    return Response(
        status=status,
        body=(json.dumps(document) + "\n").encode("utf-8"),
        content_type="application/json",
        headers=headers or [],
    )


def _error_document(status: int, kind: str, message: str) -> dict:
    return {"error": {"type": kind, "message": message, "status": status}}


class ReproServer:
    """Asyncio HTTP front-end over one shared :class:`QueryService`.

    ``quota_rate``/``quota_burst`` are the token-bucket quota of every
    tenant lane not given its own by :meth:`configure_tenant`; the lane
    bound and request deadline are the service's.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        observation_class: IRI = OBSERVATION_CLASS,
        quota_rate: float | None = None,
        quota_burst: float = 20.0,
        retries: int = 0,
        breaker: bool = False,
        serve_stale: bool = False,
        own_service: bool = False,
    ):
        self.service = service
        self.observation_class = observation_class
        self._own_service = own_service
        self._resilience_config = (retries, breaker, serve_stale)
        self._http = HTTPServer(self._handle, host, port)
        service.executor.default_quota = (quota_rate, quota_burst)
        self._endpoints: dict[str, object] = {}
        self._endpoints_lock = threading.Lock()
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._http.host

    @property
    def port(self) -> int:
        return self._http.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        await self._http.start()

    async def stop(self) -> None:
        """Graceful shutdown: drain HTTP, then (when owning the service)
        drain and close the worker pool.

        In-flight HTTP handlers are awaiting their lane futures, so the
        HTTP drain transitively waits for their queries.
        """
        if self._stopped:
            return
        self._stopped = True
        await self._http.stop()
        if self._own_service:
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.shutdown)

    # -- tenancy -----------------------------------------------------------

    def configure_tenant(self, tenant: str, quota_rate: float | None,
                         quota_burst: float = 1.0) -> None:
        self.service.executor.configure_tenant(tenant, quota_rate, quota_burst)

    def _tenant_endpoint(self, tenant: str):
        """This tenant's query interface over the shared endpoint."""
        with self._endpoints_lock:
            endpoint = self._endpoints.get(tenant)
            if endpoint is None:
                endpoint = with_resilience(self.service.endpoint,
                                           *self._resilience_config)
                self._endpoints[tenant] = endpoint
            return endpoint

    async def _dispatch(self, tenant: str, fn, /, *args, **kwargs):
        """Run blocking engine work on the tenant's quota-checked lane."""
        return await asyncio.wrap_future(
            self.service.dispatch(fn, *args, tenant=tenant, **kwargs))

    def _session(self, session_id: str, tenant: str) -> ManagedSession:
        try:
            return self.service.managed_session(session_id, tenant)
        except ServingError:
            raise HTTPError(404, f"no session {session_id!r}") from None

    # -- request handling --------------------------------------------------

    async def _handle(self, request: Request) -> Response:
        tenant = request.header(TENANT_HEADER, DEFAULT_TENANT) or DEFAULT_TENANT
        try:
            return await self._route(request, tenant)
        except HTTPError as error:
            headers = []
            if error.status in (429, 503):
                headers.append(("Retry-After", "1"))
            return _json_response(
                _error_document(error.status, "http", str(error)),
                status=error.status, headers=headers)
        except QuotaExceededError as error:
            retry_after = max(1, math.ceil(error.retry_after))
            return _json_response(
                _error_document(429, "quota", str(error)),
                status=429, headers=[("Retry-After", str(retry_after))])
        except RequestShedError as error:
            # Before QueryTimeoutError: a shed request never ran at all.
            return _json_response(
                _error_document(503, "shed", str(error)),
                status=503, headers=[("Retry-After", "1")])
        except (AdmissionError, CircuitOpenError) as error:
            return _json_response(
                _error_document(503, "overloaded", str(error)),
                status=503, headers=[("Retry-After", "1")])
        except ServiceShutdownError as error:
            return _json_response(
                _error_document(503, "shutdown", str(error)),
                status=503, headers=[("Retry-After", "1")])
        except QueryTimeoutError as error:
            return _json_response(
                _error_document(504, "timeout", str(error)), status=504)
        except TransientError as error:
            return _json_response(
                _error_document(503, "unavailable", str(error)),
                status=503, headers=[("Retry-After", "1")])
        except SPARQLSyntaxError as error:
            return _json_response(
                _error_document(400, "parse", str(error)), status=400)
        except ReproError as error:
            return _json_response(
                _error_document(400, type(error).__name__, str(error)),
                status=400)

    async def _route(self, request: Request, tenant: str) -> Response:
        path = request.path.rstrip("/") or "/"
        if path == "/sparql":
            return await self._handle_sparql(request, tenant)
        if path == "/sessions":
            if request.method == "POST":
                return await self._handle_open_session(request, tenant)
            if request.method == "GET":
                return _json_response(
                    {"sessions": self.service.session_ids(tenant)})
            raise HTTPError(405, f"method {request.method} not allowed")
        if path.startswith("/sessions/"):
            rest = path[len("/sessions/"):]
            if rest.endswith("/steps"):
                session_id = rest[: -len("/steps")]
                if request.method != "POST":
                    raise HTTPError(405, "steps are POST-only")
                return await self._handle_step(request, tenant, session_id)
            if request.method == "GET":
                return _json_response(
                    session_state(self._session(rest, tenant)))
            if request.method == "DELETE":
                try:
                    self.service.close_session(rest, tenant)
                except ServingError:
                    raise HTTPError(404, f"no session {rest!r}") from None
                return _json_response({"closed": rest})
            raise HTTPError(405, f"method {request.method} not allowed")
        if path == "/stats":
            if request.method != "GET":
                raise HTTPError(405, "stats are GET-only")
            return _json_response(self.stats_document())
        if path == "/healthz":
            return _json_response({"status": "ok"})
        raise HTTPError(404, f"no route for {request.path!r}")

    async def _handle_sparql(self, request: Request, tenant: str) -> Response:
        text, timeout = extract_query(request)
        writer, content_type = negotiate(request.header("accept"))
        endpoint = self._tenant_endpoint(tenant)
        if timeout is DEFAULT_TIMEOUT:
            # Resolve the sentinel here, at the boundary: the pool's
            # deadline composition needs the real value, and an explicit
            # 0/None from the client must stay distinguishable from
            # "no preference".
            timeout = endpoint.default_timeout
        result = await self._dispatch(tenant, endpoint.query, text,
                                      timeout=timeout)
        if isinstance(result, Graph):
            return Response(
                200,
                result.to_ntriples().encode("utf-8"),
                content_type="application/n-triples; charset=utf-8",
            )
        return Response(200, writer(result).encode("utf-8"),
                        content_type=content_type)

    def _json_body(self, request: Request) -> dict:
        if not request.body:
            return {}
        try:
            document = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HTTPError(400, f"malformed JSON body: {exc}") from exc
        if not isinstance(document, dict):
            raise HTTPError(400, "JSON body must be an object")
        return document

    async def _handle_open_session(self, request: Request,
                                   tenant: str) -> Response:
        document = self._json_body(request)
        raw_class = document.get("observation_class")
        if raw_class is not None and not isinstance(raw_class, str):
            raise HTTPError(400, "observation_class must be a string IRI")
        observation_class = (
            IRI(raw_class) if raw_class else self.observation_class)
        endpoint = self._tenant_endpoint(tenant)

        def open_session() -> ManagedSession:
            return self.service.managed_session(
                self.service.open_session(observation_class,
                                          endpoint=endpoint, tenant=tenant),
                tenant)

        # Session bootstrap crawls the schema, so it runs on the tenant's
        # lane like any other query work.
        managed = await self._dispatch(tenant, open_session)
        return _json_response(
            {
                "session": managed.id,
                "tenant": tenant,
                "observation_class": managed.observation_class,
                "refinement_kinds": managed.session.refinement_kinds(),
            },
            status=201,
        )

    async def _handle_step(self, request: Request, tenant: str,
                           session_id: str) -> Response:
        managed = self._session(session_id, tenant)
        payload = self._json_body(request)
        document = await self._dispatch(tenant, run_step, managed, payload)
        return _json_response(document)

    # -- statistics --------------------------------------------------------

    def stats_document(self) -> dict:
        serving = asdict(self.service.stats())
        endpoint_stats = self.service.endpoint.stats.snapshot()
        executor = self.service.executor
        tenants = executor.tenant_stats()
        for name, entry in tenants.items():
            endpoint = self._endpoints.get(name)
            breaker = getattr(endpoint, "breaker", None)
            if breaker is not None:
                entry["breaker_state"] = breaker.state
                entry["breaker_trips"] = breaker.stats.trips
            resilience = getattr(endpoint, "resilience", None)
            if resilience is not None and hasattr(resilience, "snapshot"):
                snap = resilience.snapshot()
                entry["retries"] = snap.retries
                entry["stale_served"] = snap.stale_served
        cache = self.service.cache
        cache_tiers = {}
        if cache is not None and hasattr(cache, "stats"):
            cache_tiers = {
                tier: {"hits": s.hits, "misses": s.misses,
                       "evictions": s.evictions}
                for tier, s in cache.stats.items()
            }
        graph = getattr(self.service.endpoint, "graph", None)
        durability = getattr(graph, "durability_stats", None)
        document = {
            "serving": serving,
            "endpoint": {
                **{name: getattr(endpoint_stats, name) for name in COUNTERS},
                "decline_reasons": endpoint_stats.decline_reasons,
            },
            "executor": {"workers": executor.workers, **executor.stats},
            "cache": cache_tiers,
            "tenants": tenants,
            "sessions": serving["open_sessions"],
            "http": {"inflight": self._http.inflight,
                     "pending": executor.pending},
        }
        if callable(durability):
            document["durability"] = durability()
        return document


class ServerHandle:
    """A :class:`ReproServer` running on its own event-loop thread.

    The engine is synchronous and thread-based; tests, the CLI, and the
    benchmarks drive the server from plain threads, so the event loop
    lives on a dedicated daemon thread and this handle bridges the two
    worlds.  ``close()`` performs the full graceful shutdown and joins.
    """

    def __init__(self, server: ReproServer):
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True)
        self._closed = False

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()
        # run_forever returned: stop() already ran its coroutine.
        self._loop.close()

    def start(self) -> "ServerHandle":
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        future = asyncio.run_coroutine_threadsafe(self.server.stop(),
                                                  self._loop)
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_in_thread(service: QueryService, host: str = "127.0.0.1",
                    port: int = 0, **kwargs) -> ServerHandle:
    """Start a :class:`ReproServer` on a background thread; returns handle."""
    return ServerHandle(ReproServer(service, host, port, **kwargs)).start()
