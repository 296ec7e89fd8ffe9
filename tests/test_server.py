"""HTTP front-end tests: protocol conformance, sessions, tenancy, shutdown.

Covers the four serving promises of :mod:`repro.server`:

* SPARQL 1.1 protocol conformance — GET / form POST / direct POST, result
  content negotiation, and the documented error-status mapping;
* the JSON session API is *transparent*: a dialogue driven over HTTP
  produces exactly the candidates, results, and history an in-process
  :class:`ExplorationSession` produces;
* tenancy — token-bucket quotas answer 429 with Retry-After, and the
  pool's round-robin over tenant lanes keeps a hot tenant from starving a
  slow one;
* graceful shutdown loses zero in-flight responses.

The servers run on an event-loop thread (``serve_in_thread``) and the
tests speak plain ``http.client`` — the same way the CLI and benchmarks
drive the stack.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from dataclasses import fields

import pytest

from repro.core import ExplorationSession
from repro.errors import QueryTimeoutError
from repro.qb import OBSERVATION_CLASS
from repro.resilience import FaultInjector, FaultPlan
from repro.server import DEFAULT_TENANT, serve_in_thread
from repro.serving import QueryService, TokenBucket
from repro.sparql.results import to_csv, to_sparql_json, to_tsv
from repro.store import EndpointStats

SELECT_Q = (
    f"SELECT ?s WHERE {{ ?s a <{OBSERVATION_CLASS}> }} ORDER BY ?s LIMIT 10"
)
ASK_Q = f"ASK {{ ?s a <{OBSERVATION_CLASS}> }}"
CONSTRUCT_Q = (
    f"CONSTRUCT {{ ?s a <{OBSERVATION_CLASS}> }} "
    f"WHERE {{ ?s a <{OBSERVATION_CLASS}> }}"
)


class Client:
    """A minimal blocking HTTP client bound to one server and tenant."""

    def __init__(self, handle, tenant: str | None = None):
        self.host = handle.server.host
        self.port = handle.server.port
        self.tenant = tenant

    def request(self, method, path, body=None, headers=None, timeout=30):
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout)
        try:
            sent = dict(headers or {})
            if self.tenant is not None:
                sent["X-Repro-Tenant"] = self.tenant
            conn.request(method, path, body=body, headers=sent)
            response = conn.getresponse()
            data = response.read()
            return response.status, dict(
                (k.lower(), v) for k, v in response.getheaders()), data
        finally:
            conn.close()

    def get(self, path, headers=None):
        return self.request("GET", path, headers=headers)

    def sparql(self, query, accept=None, timeout_param=None, method="GET"):
        params = {"query": query}
        if timeout_param is not None:
            params["timeout"] = timeout_param
        encoded = urllib.parse.urlencode(params)
        headers = {"Accept": accept} if accept else {}
        if method == "GET":
            return self.request("GET", f"/sparql?{encoded}", headers=headers)
        headers["Content-Type"] = "application/x-www-form-urlencoded"
        return self.request("POST", "/sparql", body=encoded, headers=headers)

    def json(self, method, path, document=None, headers=None):
        body = None if document is None else json.dumps(document)
        status, _, data = self.request(method, path, body=body,
                                       headers=headers)
        return status, json.loads(data)


@pytest.fixture(scope="module")
def server(mini_kg):
    service = QueryService(mini_kg.endpoint(), workers=4)
    handle = serve_in_thread(service, own_service=True)
    yield handle
    handle.close()


@pytest.fixture(scope="module")
def client(server):
    return Client(server)


def expected(server, query, writer=to_sparql_json):
    return writer(server.server.service.execute(query))


# -- SPARQL protocol ---------------------------------------------------------


class TestSparqlProtocol:
    def test_get_select_json(self, server, client):
        status, headers, body = client.sparql(SELECT_Q)
        assert status == 200
        assert headers["content-type"].startswith(
            "application/sparql-results+json")
        document = json.loads(body)
        assert document == json.loads(expected(server, SELECT_Q))
        assert document["head"]["vars"] == ["s"]
        assert len(document["results"]["bindings"]) == 10

    def test_form_post_matches_get(self, server, client):
        get_body = client.sparql(SELECT_Q)[2]
        status, _, post_body = client.sparql(SELECT_Q, method="POST")
        assert status == 200
        assert post_body == get_body

    def test_direct_post(self, client):
        status, _, body = client.request(
            "POST", "/sparql", body=ASK_Q,
            headers={"Content-Type": "application/sparql-query"})
        assert status == 200
        assert json.loads(body) == {"head": {}, "boolean": True}

    def test_ask_json(self, client):
        status, _, body = client.sparql(ASK_Q)
        assert status == 200
        assert json.loads(body)["boolean"] is True

    def test_construct_returns_ntriples(self, client):
        status, headers, body = client.sparql(CONSTRUCT_Q)
        assert status == 200
        assert headers["content-type"].startswith("application/n-triples")
        lines = [l for l in body.decode().splitlines() if l.strip()]
        assert len(lines) == 120  # every observation, one triple each
        assert all(line.endswith(" .") for line in lines)

    def test_conneg_csv(self, server, client):
        status, headers, body = client.sparql(SELECT_Q, accept="text/csv")
        assert status == 200
        assert headers["content-type"].startswith("text/csv")
        assert body.decode() == expected(server, SELECT_Q, to_csv)

    def test_conneg_tsv(self, server, client):
        status, headers, body = client.sparql(
            SELECT_Q, accept="text/tab-separated-values")
        assert status == 200
        assert headers["content-type"].startswith("text/tab-separated-values")
        assert body.decode() == expected(server, SELECT_Q, to_tsv)

    def test_conneg_honors_q_values(self, client):
        status, headers, _ = client.sparql(
            ASK_Q,
            accept="text/csv;q=0.3, application/sparql-results+json;q=0.9")
        assert status == 200
        assert headers["content-type"].startswith(
            "application/sparql-results+json")

    def test_conneg_wildcard_is_json(self, client):
        status, headers, _ = client.sparql(ASK_Q, accept="*/*")
        assert status == 200
        assert headers["content-type"].startswith(
            "application/sparql-results+json")

    def test_conneg_unsupported_is_406(self, client):
        status, _, body = client.sparql(ASK_Q, accept="application/xml")
        assert status == 406
        assert json.loads(body)["error"]["status"] == 406

    def test_missing_query_is_400(self, client):
        status, _, body = client.get("/sparql")
        assert status == 400
        assert "query" in json.loads(body)["error"]["message"]

    def test_parse_error_is_400(self, client):
        status, _, body = client.sparql("SELEC ?s WHERE { ?s ?p ?o }")
        assert status == 400
        assert json.loads(body)["error"]["type"] == "parse"

    def test_unsupported_media_type_is_415(self, client):
        status, _, _ = client.request(
            "POST", "/sparql", body=ASK_Q,
            headers={"Content-Type": "text/plain"})
        assert status == 415

    def test_wrong_method_is_405(self, client):
        status, _, _ = client.request("PUT", "/sparql", body="x")
        assert status == 405

    def test_unknown_route_is_404(self, client):
        status, _, body = client.get("/nope")
        assert status == 404
        assert json.loads(body)["error"]["status"] == 404

    def test_healthz(self, client):
        status, _, body = client.get("/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_explicit_timeout_zero_is_504(self, client):
        # The boundary must pass 0 through literally (an already-expired
        # budget), not fall back to the endpoint default.
        status, _, body = client.sparql(SELECT_Q, timeout_param="0")
        assert status == 504
        assert json.loads(body)["error"]["type"] == "timeout"

    def test_explicit_timeout_none_disables(self, client):
        status, _, _ = client.sparql(SELECT_Q, timeout_param="none")
        assert status == 200

    def test_malformed_timeout_is_400(self, client):
        status, _, _ = client.sparql(SELECT_Q, timeout_param="soon")
        assert status == 400
        status, _, _ = client.sparql(SELECT_Q, timeout_param="-1")
        assert status == 400


# -- session API -------------------------------------------------------------


class TestSessionAPI:
    def _open(self, client):
        status, document = client.json("POST", "/sessions")
        assert status == 201
        return document

    def test_lifecycle_matches_in_process(self, server, client, mini_kg,
                                          mini_vgraph):
        reference = ExplorationSession(mini_kg.endpoint(), mini_vgraph)
        opened = self._open(client)
        sid = opened["session"]
        assert opened["refinement_kinds"] == reference.refinement_kinds()

        # synthesize: identical candidate list, same order.
        status, step = client.json(
            "POST", f"/sessions/{sid}/steps",
            {"action": "synthesize", "values": ["Germany", "2014"]})
        assert status == 200 and step["ok"] and not step["degraded"]
        ref_candidates = reference.step("synthesize", "Germany", "2014").value
        assert [c["description"] for c in step["candidates"]] == [
            q.description for q in ref_candidates]
        assert [c["sparql"] for c in step["candidates"]] == [
            q.sparql() for q in ref_candidates]

        # choose: identical result set.
        status, step = client.json(
            "POST", f"/sessions/{sid}/steps", {"action": "choose", "index": 0})
        assert status == 200 and step["ok"]
        ref_results = reference.step("choose", 0).value
        ref_document = json.loads(to_sparql_json(ref_results))
        assert step["results"]["size"] == len(ref_results)
        assert step["results"]["vars"] == ref_document["head"]["vars"]
        canonical = lambda rows: sorted(json.dumps(r, sort_keys=True)
                                        for r in rows)
        assert canonical(step["results"]["bindings"]) == canonical(
            ref_document["results"]["bindings"])

        # refinements menu: identical explanations.
        status, step = client.json(
            "POST", f"/sessions/{sid}/steps",
            {"action": "refinements", "kind": "disaggregate"})
        assert status == 200 and step["ok"]
        ref_menu = reference.step("refinements", "disaggregate").value
        assert [p["explanation"] for p in step["refinements"]["disaggregate"]
                ] == [p.explanation for p in ref_menu]
        assert ref_menu, "mini KG must offer a disaggregation"

        # apply: identical refined result.
        status, step = client.json(
            "POST", f"/sessions/{sid}/steps",
            {"action": "apply", "kind": "disaggregate", "index": 0})
        assert status == 200 and step["ok"]
        ref_refined = reference.step(
            "apply", ref_menu[0], options_offered=len(ref_menu)).value
        assert step["results"]["size"] == len(ref_refined)

        # back: both rewind to the same query.
        status, step = client.json(
            "POST", f"/sessions/{sid}/steps", {"action": "back"})
        assert status == 200 and step["ok"]
        reference.step("back")
        status, state = client.json("GET", f"/sessions/{sid}")
        assert status == 200
        assert state["current"]["description"] == reference.query.description
        assert len(state["steps"]) == len(reference.history)
        assert [s["kind"] for s in state["steps"]] == [
            s.kind for s in reference.history]
        assert state["degraded_steps"] == 0
        assert state["steps_taken"] == 5

    def test_choose_out_of_range_is_rejected_not_500(self, client):
        sid = self._open(client)["session"]
        client.json("POST", f"/sessions/{sid}/steps",
                    {"action": "synthesize", "values": ["Germany"]})
        status, step = client.json(
            "POST", f"/sessions/{sid}/steps", {"action": "choose",
                                               "index": 999})
        assert status == 200
        assert step["ok"] is False and step["error"]

    def test_all_refinements_returns_every_menu(self, client):
        sid = self._open(client)["session"]
        client.json("POST", f"/sessions/{sid}/steps",
                    {"action": "synthesize", "values": ["Germany", "2014"]})
        client.json("POST", f"/sessions/{sid}/steps",
                    {"action": "choose", "index": 0})
        status, step = client.json("POST", f"/sessions/{sid}/steps",
                                   {"action": "all_refinements"})
        assert status == 200 and step["ok"]
        assert "disaggregate" in step["refinements"]

    def test_malformed_steps_are_400(self, client):
        sid = self._open(client)["session"]
        bad = [
            {},
            {"action": 7},
            {"action": "synthesize"},
            {"action": "synthesize", "values": []},
            {"action": "synthesize", "values": [1, 2]},
            {"action": "choose"},
            {"action": "choose", "index": "first"},
            {"action": "choose", "index": True},
            {"action": "refinements"},
            {"action": "apply", "kind": "disaggregate"},
            {"action": "teleport"},
        ]
        for payload in bad:
            status, document = client.json(
                "POST", f"/sessions/{sid}/steps", payload)
            assert status == 400, payload
            assert document["error"]["status"] == 400
        status, _ = client.json("POST", f"/sessions/{sid}/steps")
        assert status == 400  # empty body has no action either

    def test_apply_index_out_of_range_is_400(self, client):
        sid = self._open(client)["session"]
        client.json("POST", f"/sessions/{sid}/steps",
                    {"action": "synthesize", "values": ["Germany", "2014"]})
        client.json("POST", f"/sessions/{sid}/steps",
                    {"action": "choose", "index": 0})
        status, document = client.json(
            "POST", f"/sessions/{sid}/steps",
            {"action": "apply", "kind": "disaggregate", "index": 99})
        assert status == 400
        assert "out of range" in document["error"]["message"]

    def test_tenant_isolation(self, server):
        alice = Client(server, tenant="alice")
        mallory = Client(server, tenant="mallory")
        sid = self._open(alice)["session"]
        assert sid in alice.json("GET", "/sessions")[1]["sessions"]

        # A foreign session id behaves exactly like a missing one.
        assert mallory.json("GET", f"/sessions/{sid}")[0] == 404
        assert mallory.json("POST", f"/sessions/{sid}/steps",
                            {"action": "back"})[0] == 404
        assert mallory.json("DELETE", f"/sessions/{sid}")[0] == 404
        assert sid not in mallory.json("GET", "/sessions")[1]["sessions"]

        status, document = alice.json("DELETE", f"/sessions/{sid}")
        assert status == 200 and document == {"closed": sid}
        assert alice.json("GET", f"/sessions/{sid}")[0] == 404

    def test_unknown_session_is_404(self, client):
        assert client.json("GET", "/sessions/s999999")[0] == 404

    def test_closed_sessions_are_freed(self, mini_kg):
        service = QueryService(mini_kg.endpoint(), workers=2)
        handle = serve_in_thread(service, own_service=True)
        try:
            client, mallory = Client(handle), Client(handle, tenant="mallory")
            sids = [self._open(client)["session"] for _ in range(5)]
            # A foreign tenant can neither see nor close a live session.
            assert mallory.json("GET", f"/sessions/{sids[0]}")[0] == 404
            assert mallory.json("DELETE", f"/sessions/{sids[0]}")[0] == 404
            assert client.json("GET", f"/sessions/{sids[0]}")[0] == 200
            for sid in sids:
                assert client.json("DELETE", f"/sessions/{sid}")[0] == 200
            _, stats = client.json("GET", "/stats")
            assert stats["sessions"] == stats["serving"]["open_sessions"] == 0
            assert service.session_ids() == []
        finally:
            handle.close()

    def test_sessions_run_under_a_request_deadline(self, mini_kg):
        service = QueryService(mini_kg.endpoint(), workers=2,
                               request_deadline=30.0)
        handle = serve_in_thread(service, own_service=True)
        try:
            client = Client(handle)
            sid = self._open(client)["session"]
            status, step = client.json(
                "POST", f"/sessions/{sid}/steps",
                {"action": "synthesize", "values": ["Germany"]})
            assert status == 200 and step["ok"]
        finally:
            handle.close()


# -- tenancy: quotas and fairness --------------------------------------------


class TestTokenBucket:
    def test_grants_until_burst_then_denies_with_hint(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == 0.0
        assert bucket.try_take() == pytest.approx(1.0)
        now[0] += 0.5
        assert bucket.try_take() == pytest.approx(0.5)  # refill is partial
        now[0] += 0.5
        assert bucket.try_take() == 0.0
        assert bucket.tokens == pytest.approx(0.0)

    def test_unlimited_bucket_always_grants(self):
        bucket = TokenBucket(rate=None)
        assert all(bucket.try_take() == 0.0 for _ in range(1000))
        assert bucket.tokens == float("inf")
        assert TokenBucket(rate=0.0).try_take() == 0.0

    def test_burst_must_cover_one_request(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestQuotaOverHTTP:
    def test_429_with_retry_after(self, server):
        server.server.configure_tenant("metered", quota_rate=0.001,
                                       quota_burst=2)
        metered = Client(server, tenant="metered")
        assert metered.sparql(ASK_Q)[0] == 200
        assert metered.sparql(ASK_Q)[0] == 200
        status, headers, body = metered.sparql(ASK_Q)
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert json.loads(body)["error"]["type"] == "quota"

        # The denial is per tenant: everyone else keeps flowing.
        assert Client(server).sparql(ASK_Q)[0] == 200
        _, stats = Client(server).json("GET", "/stats")
        assert stats["tenants"]["metered"]["quota_denied"] == 1


class TestFairnessOverHTTP:
    def test_hot_tenant_cannot_starve_slow_tenant(self, server):
        """Saturating hot-tenant traffic must not blow up the latency of a
        tenant sending one request at a time."""
        stop = threading.Event()
        hot_latencies: list[float] = []
        hot_lock = threading.Lock()

        def hot_worker(worker):
            hot = Client(server, tenant="hot")
            i = 0
            while not stop.is_set():
                i += 1
                query = (f"SELECT ?s WHERE {{ ?s a <{OBSERVATION_CLASS}> }} "
                         f"LIMIT {20 + (worker * 97 + i) % 90}")
                start = time.monotonic()
                status, _, _ = hot.sparql(query)
                elapsed = time.monotonic() - start
                assert status in (200, 429, 503)
                with hot_lock:
                    hot_latencies.append(elapsed)

        threads = [threading.Thread(target=hot_worker, args=(w,), daemon=True)
                   for w in range(6)]
        for thread in threads:
            thread.start()
        try:
            time.sleep(0.1)  # let the hot lane saturate the pool
            slow = Client(server, tenant="slow")
            latencies = []
            for i in range(10):
                query = (f"SELECT ?s WHERE {{ ?s a <{OBSERVATION_CLASS}> }} "
                         f"LIMIT {110 + i}")
                start = time.monotonic()
                status, _, _ = slow.sparql(query)
                latencies.append(time.monotonic() - start)
                assert status == 200
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        latencies.sort()
        p95 = latencies[int(0.95 * (len(latencies) - 1))]
        # The fairness bound: one round-robin cycle (~2 lanes x one service
        # time), with CI headroom — not the hot tenant's queue depth.
        assert p95 < 2.0, f"slow tenant p95 {p95:.3f}s; starved"
        assert len(hot_latencies) >= 10  # the hot tenant really was hot


# -- graceful shutdown -------------------------------------------------------


class TestGracefulShutdown:
    def test_zero_inflight_responses_lost(self, mini_kg):
        """Every request accepted before stop() gets a complete, correct
        response; afterwards the port refuses."""
        # Every store call waits at the gate (the injector's latency
        # sleep), so no request can finish before close() has begun.
        gate = threading.Event()
        injector = FaultInjector(
            mini_kg.endpoint(), FaultPlan.random(5, latency_rate=1.0),
            sleep=lambda _seconds: gate.wait(timeout=30),
        )
        service = QueryService(injector, workers=2, cache_size=0)
        handle = serve_in_thread(service, own_service=True)
        n_requests = 8
        outcomes: list[tuple[int, bytes]] = []
        lock = threading.Lock()

        def worker(i):
            client = Client(handle, tenant=f"t{i % 3}")
            status, _, body = client.sparql(
                f"SELECT ?s WHERE {{ ?s a <{OBSERVATION_CLASS}> }} "
                f"LIMIT {5 + i}")
            with lock:
                outcomes.append((status, body))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_requests)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while (handle.server._http.inflight < n_requests
               and time.monotonic() < deadline):
            time.sleep(0.002)
        assert handle.server._http.inflight == n_requests
        # Graceful: close() drains all eight before returning.
        closer = threading.Thread(target=handle.close)
        closer.start()
        deadline = time.monotonic() + 10
        while (not handle.server._http._closing
               and time.monotonic() < deadline):
            time.sleep(0.002)
        assert handle.server._http._closing
        gate.set()
        closer.join(timeout=60)
        assert not closer.is_alive()
        for thread in threads:
            thread.join(timeout=30)

        assert len(outcomes) == n_requests
        for status, body in outcomes:
            assert status == 200, body
            document = json.loads(body)
            assert document["results"]["bindings"], "drained answer is empty"

        with pytest.raises(OSError):
            Client(handle).get("/healthz")

    def test_close_is_idempotent(self, mini_kg):
        handle = serve_in_thread(QueryService(mini_kg.endpoint(), workers=1),
                                 own_service=True)
        assert Client(handle).get("/healthz")[0] == 200
        handle.close()
        handle.close()


# -- statistics --------------------------------------------------------------


class TestStats:
    def test_stats_document_shape_and_counters(self, server, client):
        client.sparql(ASK_Q)
        status, stats = client.json("GET", "/stats")
        assert status == 200
        assert set(stats) >= {"serving", "endpoint", "executor", "cache",
                              "tenants", "sessions", "http"}
        assert stats["serving"]["requests"] >= 1
        assert stats["executor"]["workers"] == 4
        assert stats["executor"]["completed"] >= 1
        public = stats["tenants"][DEFAULT_TENANT]
        assert public["submitted"] >= 1
        assert public["completed"] >= 1
        assert stats["http"]["pending"] == 0

    def test_stats_lists_every_endpoint_counter(self, server, client):
        client.sparql(ASK_Q)
        _, stats = client.json("GET", "/stats")
        counters = {f.name for f in fields(EndpointStats)
                    if f.type in ("int", int)}
        assert "errors" in counters and "tuple_executions" in counters
        # Every counter is published, the query and engine counters among them.
        assert set(stats["endpoint"]) == counters | {"decline_reasons"}
        assert set(stats["endpoint"]) >= {
            "select_queries", "ask_queries", "construct_queries",
            "keyword_lookups", "timeouts", "cache_hits",
            "compiled_selects", "fallback_selects", "fused_aggregates",
            "fallback_aggregates", "decline_reasons"}
        assert stats["endpoint"]["ask_queries"] >= 1

    def test_stats_wrong_method_is_405(self, client):
        assert client.request("POST", "/stats", body="{}")[0] == 405
