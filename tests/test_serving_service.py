"""Serving layer: executor admission control, endpoint thread safety, QueryService.

The acceptance-critical test drives 8+ threads of mixed exploration
sessions through one :class:`QueryService` and checks every thread saw
exactly the results a serial, uncached run produces — concurrency plus
caching must be invisible to correctness.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.core import ExplorationSession, VirtualSchemaGraph
from repro.errors import (
    AdmissionError,
    QueryTimeoutError,
    RequestShedError,
    ServiceShutdownError,
    ServingError,
)
from repro.qb import OBSERVATION_CLASS
from repro.rdf import IRI, Literal
from repro.rdf.triple import Triple
from repro.resilience import ResilientEndpoint
from repro.serving import (
    DEFAULT_TENANT,
    QueryCache,
    QueryService,
    ServingExecutor,
)
from repro.store import Endpoint, Graph


def triple(i: int) -> Triple:
    return Triple(IRI(f"urn:s{i}"), IRI("urn:p"), Literal(str(i)))


def small_graph(n: int = 30) -> Graph:
    return Graph(triples=[triple(i) for i in range(n)])


SELECT_ALL = "SELECT ?s ?o WHERE { ?s <urn:p> ?o }"


# ---------------------------------------------------------------------------
# ServingExecutor
# ---------------------------------------------------------------------------


class TestServingExecutor:
    def test_runs_work_and_counts(self):
        with ServingExecutor(workers=2) as pool:
            futures = [pool.submit(lambda x: x * 2, i) for i in range(10)]
            assert sorted(f.result() for f in futures) == [2 * i for i in range(10)]
        stats = pool.stats
        assert stats["submitted"] == 10 and stats["completed"] == 10
        assert stats["rejected"] == 0 and pool.pending == 0

    def test_admission_control_rejects_when_full(self):
        started, release = threading.Event(), threading.Event()

        def blocker():
            started.set()
            release.wait(5)

        with ServingExecutor(workers=1, max_queue=1) as pool:
            running = pool.submit(blocker)
            assert started.wait(5)
            queued = pool.submit(lambda: None)
            with pytest.raises(AdmissionError):
                pool.submit(lambda: None)
            assert pool.stats["rejected"] == 1
            release.set()
            running.result(timeout=5)
            queued.result(timeout=5)
            # Lane drained: admission works again.
            assert pool.submit(lambda: 42).result(timeout=5) == 42

    def test_lane_overflow_is_admission_error(self):
        gate = threading.Event()
        with ServingExecutor(workers=1, max_queue=2) as pool:
            futures = []
            try:
                for _ in range(8):
                    try:
                        futures.append(pool.submit(gate.wait, 5, tenant="t"))
                    except AdmissionError:
                        break
                else:
                    pytest.fail("lane never filled")
                # The bound is per lane: another tenant still gets in.
                futures.append(pool.submit(lambda: "other", tenant="u"))
                assert pool.tenant_stats()["t"]["rejected"] == 1
                assert pool.tenant_stats()["u"]["rejected"] == 0
            finally:
                gate.set()
            for future in futures:
                future.result(timeout=10)

    def test_expired_deadline_fails_without_running(self):
        ran = []
        with ServingExecutor(workers=1) as pool:
            future = pool.submit(lambda **kw: ran.append(1),
                                 deadline=time.monotonic() - 0.1)
            with pytest.raises(RequestShedError):
                future.result(timeout=5)
        assert not ran
        assert pool.stats["shed"] == 1

    def test_deadline_tightens_cooperative_timeout(self):
        seen = {}

        def work(timeout=None):
            seen["timeout"] = timeout
            return "ok"

        with ServingExecutor(workers=1) as pool:
            # Caller allows 100s but only 1s of deadline budget remains.
            future = pool.submit(work, timeout=100.0,
                                 deadline=time.monotonic() + 1.0)
            assert future.result(timeout=5) == "ok"
            # Work that takes no timeout keeps its signature.
            assert pool.submit(lambda: "plain",
                               deadline=time.monotonic() + 1.0
                               ).result(timeout=5) == "plain"
        assert seen["timeout"] <= 1.0

    def test_submit_after_shutdown_raises(self):
        pool = ServingExecutor(workers=1)
        pool.shutdown()
        with pytest.raises(ServiceShutdownError):
            pool.submit(lambda: None)

    def test_failed_tasks_release_slots(self):
        with ServingExecutor(workers=1, max_queue=1) as pool:
            for _ in range(5):
                future = pool.submit(lambda: 1 / 0)
                with pytest.raises(ZeroDivisionError):
                    future.result(timeout=5)
        assert pool.stats["errors"] == 5

    def test_round_robin_beats_a_hot_backlog(self):
        """A single queued slow-tenant task runs within one round-robin
        cycle, not behind the hot tenant's whole backlog."""
        order: list[str] = []
        lock = threading.Lock()

        def task(tag):
            time.sleep(0.005)
            with lock:
                order.append(tag)
            return tag

        with ServingExecutor(workers=1, max_queue=128) as pool:
            hot = [pool.submit(task, f"hot-{i}", tenant="hot")
                   for i in range(20)]
            deadline = time.monotonic() + 5
            while not order and time.monotonic() < deadline:
                time.sleep(0.001)  # let the backlog start draining
            slow = pool.submit(task, "slow", tenant="slow")
            assert slow.result(timeout=10) == "slow"
            for future in hot:
                future.result(timeout=10)
        position = order.index("slow")
        # FIFO would put it at position 20; round-robin runs it on the
        # next cycle (a little slack for the polling loop above).
        assert position <= 4, f"slow tenant starved: order={order}"
        stats = pool.tenant_stats()
        assert stats["hot"]["completed"] == 20
        assert stats["slow"]["completed"] == 1

    def test_shutdown_drains_queued_work(self):
        pool = ServingExecutor(workers=1)
        futures = [pool.submit(lambda i=i: i) for i in range(10)]
        pool.shutdown(wait=True)
        assert [f.result(timeout=1) for f in futures] == list(range(10))


# ---------------------------------------------------------------------------
# Endpoint thread safety (shared under the executor)
# ---------------------------------------------------------------------------


class TestEndpointThreadSafety:
    def test_stats_updates_are_not_lost(self):
        ep = Endpoint(small_graph(), cache=QueryCache())
        n_threads, n_calls = 8, 40

        def worker():
            for _ in range(n_calls):
                ep.select(SELECT_ALL)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert ep.stats.select_queries == n_threads * n_calls
        assert ep.stats.cache_hits >= n_threads * n_calls - n_threads

    def test_lazy_text_index_built_once(self, monkeypatch):
        from repro.store import text_index as text_index_module

        calls = []
        original = text_index_module.TextIndex.from_graph.__func__

        def counting(cls, graph):
            calls.append(1)
            time.sleep(0.02)  # widen the race window
            return original(cls, graph)

        monkeypatch.setattr(text_index_module.TextIndex, "from_graph",
                            classmethod(counting))
        ep = Endpoint(small_graph())
        start = threading.Barrier(8)

        def lookup():
            start.wait(timeout=5)
            ep.resolve_keyword("3")

        threads = [threading.Thread(target=lookup) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# QueryService
# ---------------------------------------------------------------------------


class TestQueryService:
    def test_execute_and_submit_agree(self):
        with QueryService(small_graph(), workers=2) as service:
            direct = service.execute(SELECT_ALL)
            queued = service.submit(SELECT_ALL).result(timeout=10)
            assert direct == queued
            assert service.stats().requests == 2

    def test_cache_attaches_below_a_decorator(self):
        """A decorated endpoint is served cached, like a bare one: the
        cache lands on the Endpoint at the bottom of the chain."""
        endpoint = Endpoint(small_graph())
        resilient = ResilientEndpoint(endpoint)
        with QueryService(resilient, workers=1) as service:
            assert service.cache is not None
            assert endpoint.cache is service.cache
            assert service.endpoint is resilient
            service.execute(SELECT_ALL)
            service.execute(SELECT_ALL)
            assert endpoint.stats.cache_hits == 1

    def test_mutation_through_service_invalidates_cache(self):
        graph = small_graph()
        with QueryService(graph, workers=2) as service:
            before = service.execute(SELECT_ALL)
            service.mutate(lambda g: g.add(triple(999)))
            after = service.execute(SELECT_ALL)
            assert len(after) == len(before) + 1

    def test_session_lifecycle(self, mini_kg):
        endpoint = mini_kg.endpoint()
        with QueryService(endpoint, workers=2) as service:
            sid = service.open_session(OBSERVATION_CLASS)
            assert service.session_ids() == [sid]
            with pytest.raises(ServingError):
                service.open_session(OBSERVATION_CLASS, session_id=sid)
            service.close_session(sid)
            assert service.session_ids() == []
            with pytest.raises(ServingError):
                service.session(sid)

    def test_sessions_are_scoped_by_tenant(self, mini_kg):
        with QueryService(mini_kg.endpoint(), workers=2) as service:
            sid = service.open_session(OBSERVATION_CLASS, tenant="alice")
            assert service.session_ids("alice") == [sid]
            assert service.session_ids() == []
            # A foreign tenant's id fails exactly like a missing one.
            for tenant in (DEFAULT_TENANT, "mallory"):
                with pytest.raises(ServingError, match="no open session"):
                    service.session(sid, tenant)
                with pytest.raises(ServingError, match="no open session"):
                    service.close_session(sid, tenant)
            assert service.session(sid, "alice") is not None
            service.close_session(sid, "alice")
            assert service.stats().open_sessions == 0

    def test_lane_counters_balance_under_contention(self):
        """Every in-process submission lands in exactly one lane counter:
        a lost update under thread churn would break the balance."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            service = QueryService(small_graph(), workers=8, max_queue=1000,
                                   request_deadline=0.02)
            texts = [SELECT_ALL, "SELEC nonsense", "ASK { ?s ?p ?o }"]
            with ThreadPoolExecutor(max_workers=6) as clients:
                futures = list(clients.map(
                    lambda i: service.submit(texts[i % 3]), range(600)))
            outcomes = {"completed": 0, "errors": 0, "shed": 0}
            for future in futures:
                try:
                    future.result(timeout=60)
                except RequestShedError:
                    outcomes["shed"] += 1
                except Exception:
                    outcomes["errors"] += 1
                else:
                    outcomes["completed"] += 1
            service.shutdown()
        finally:
            sys.setswitchinterval(switch)
        lane = service.executor.tenant_stats()[DEFAULT_TENANT]
        assert lane["submitted"] == 600
        assert lane["submitted"] == (lane["completed"] + lane["errors"]
                                     + lane["shed"])
        assert {k: lane[k] for k in outcomes} == outcomes
        assert outcomes["completed"] and outcomes["errors"]

    def test_shutdown_rejects_new_work(self):
        service = QueryService(small_graph(), workers=1)
        service.shutdown()
        with pytest.raises(ServiceShutdownError):
            service.execute(SELECT_ALL)
        with pytest.raises(ServiceShutdownError):
            service.submit(SELECT_ALL)

    def test_request_deadline_composes(self):
        service = QueryService(small_graph(), workers=1,
                               request_deadline=-0.001)
        try:
            with pytest.raises(QueryTimeoutError):
                service.submit(SELECT_ALL).result(timeout=10)
        finally:
            service.shutdown()

    def test_default_timeout_survives_request_deadline(self):
        """The DEFAULT_TIMEOUT sentinel must resolve to the endpoint's
        configured default, not to the remaining request deadline.

        Regression test: the executor's deadline composition used to
        replace any non-numeric timeout — the sentinel included — with the
        remaining queue budget, silently extending a request far past the
        endpoint default.  With a zero default and a generous deadline the
        query must still time out immediately.
        """
        service = QueryService(small_graph(200), workers=1,
                               default_timeout=0.0, request_deadline=30.0)
        try:
            with pytest.raises(QueryTimeoutError):
                service.submit(SELECT_ALL).result(timeout=10)
        finally:
            service.shutdown()

    def test_explicit_timeout_zero_is_honored(self):
        """timeout=0 is an already-expired budget, not falsy noise."""
        service = QueryService(small_graph(200), workers=1)
        try:
            with pytest.raises(QueryTimeoutError):
                service.submit(SELECT_ALL, timeout=0).result(timeout=10)
            with pytest.raises(QueryTimeoutError):
                service.execute(SELECT_ALL, timeout=0)
        finally:
            service.shutdown()

    def test_explicit_timeout_none_disables_default(self):
        """timeout=None means unlimited even under a tiny default."""
        service = QueryService(small_graph(), workers=1,
                               default_timeout=1e-9)
        try:
            # The default alone must fire...
            with pytest.raises(QueryTimeoutError):
                service.execute(SELECT_ALL)
            # ...and an explicit None must override it, both paths.
            assert len(service.execute(SELECT_ALL, timeout=None)) == 30
            future = service.submit(SELECT_ALL, timeout=None)
            assert len(future.result(timeout=10)) == 30
        finally:
            service.shutdown()

    def test_concurrent_mixed_sessions_match_serial(self, mini_kg):
        """≥8 threads of mixed sessions; results identical to serial."""
        n_threads = 8
        example = "Germany"

        # Serial, uncached reference run.
        plain = Endpoint(mini_kg.graph)
        vgraph = VirtualSchemaGraph.bootstrap(plain, OBSERVATION_CLASS)
        reference = ExplorationSession(plain, vgraph)
        expected_candidates = [c.description for c in reference.synthesize(example)]
        expected_results = [reference.choose(i)
                            for i in range(len(expected_candidates))]
        expected_direct = plain.select(
            "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }")

        with QueryService(mini_kg.endpoint(), workers=n_threads) as service:
            session_ids = [service.open_session(OBSERVATION_CLASS)
                           for _ in range(n_threads)]
            barrier = threading.Barrier(n_threads)

            def explore(worker: int):
                session = service.session(session_ids[worker])
                barrier.wait(timeout=30)
                candidates = session.synthesize(example)
                descriptions = [c.description for c in candidates]
                # Each worker picks a different candidate — mixed workload.
                index = worker % len(candidates)
                chosen = session.choose(index)
                # And issues a direct service query between session steps.
                direct = service.execute(
                    "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }")
                return descriptions, index, chosen, direct

            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                futures = [pool.submit(explore, w) for w in range(n_threads)]
                done, not_done = wait(futures, timeout=180)
            assert not not_done
            for future in done:
                descriptions, index, chosen, direct = future.result()
                assert descriptions == expected_candidates
                assert chosen == expected_results[index]
                assert direct == expected_direct
            stats = service.stats()
            assert stats.errors == 0
            assert stats.open_sessions == n_threads
            # Heavy repetition across sessions → the cache must be earning.
            assert service.cache.hit_rate > 0.5

    def test_concurrent_queries_with_interleaved_mutations(self):
        """Readers under churn never see a stale cached result."""
        graph = small_graph(10)
        errors = []
        stop = threading.Event()

        with QueryService(graph, workers=4) as service:
            def reader():
                while not stop.is_set():
                    cached = service.execute(SELECT_ALL)
                    # The graph only grows during this test, so any cached
                    # answer smaller than the initial state is stale.
                    if len(cached) < 10:
                        errors.append(f"stale result: {len(cached)} rows")
                    if [v.name for v in cached.variables] != ["s", "o"]:
                        errors.append("variable mismatch")

            def mutator():
                for i in range(100, 140):
                    service.mutate(lambda g, i=i: g.add(triple(i)))
                    time.sleep(0.001)

            readers = [threading.Thread(target=reader) for _ in range(6)]
            writer = threading.Thread(target=mutator)
            for t in readers:
                t.start()
            writer.start()
            writer.join(timeout=60)
            stop.set()
            for t in readers:
                t.join(timeout=60)

            assert not errors
            # Quiesced: cached answer equals a fresh uncached evaluation.
            final = service.execute(SELECT_ALL)
            assert final == Endpoint(graph).select(SELECT_ALL)
            assert len(final) == 50
