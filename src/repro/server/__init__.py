"""The network front-end: SPARQL protocol + exploration sessions over HTTP.

This subsystem turns the in-process engine into a served system — the
wire protocol the ROADMAP's "millions of users" target needs:

* :mod:`repro.server.http` — a stdlib-only asyncio HTTP/1.1 server with
  keep-alive and draining (graceful) shutdown;
* :mod:`repro.server.protocol` — SPARQL 1.1 protocol query extraction
  and result-format content negotiation;
* :mod:`repro.server.sessions` — the JSON session API driving
  :class:`~repro.core.session.ExplorationSession` steps remotely;
* :mod:`repro.server.app` — :class:`ReproServer`, the routing/error-mapping
  layer, plus :class:`ServerHandle` / :func:`serve_in_thread` for running
  the event loop on a background thread (tests, CLI, benchmarks).

Tenant lanes, quotas and the session table live in :mod:`repro.serving`.
"""

from .app import DEFAULT_TENANT, TENANT_HEADER, ReproServer, ServerHandle, serve_in_thread
from .http import HTTPError, HTTPServer, Request, Response

__all__ = [
    "DEFAULT_TENANT",
    "HTTPError",
    "HTTPServer",
    "ReproServer",
    "Request",
    "Response",
    "ServerHandle",
    "TENANT_HEADER",
    "serve_in_thread",
]
