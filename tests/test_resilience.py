"""Unit tests for the resilience subsystem (fast, fully deterministic).

Covers the retry policy, the circuit breaker state machine, the fault
injector, the decorator surface both endpoint decorators share, the
default-timeout sentinel, and thread-safe endpoint stats.
The seeded randomized replay of the same machinery lives in the `chaos`
suite (``tests/test_chaos.py``), which is excluded from the tier-1 run.
"""

import threading

import pytest

from repro.core import SynthesisReport
from repro.core.reolap import _validate_candidates
from repro.errors import (
    CircuitOpenError,
    EndpointUnavailableError,
    QueryEvaluationError,
    QueryTimeoutError,
    TransientError,
)
from repro.rdf import IRI, Literal, Triple, literal_from_python
from repro.sparql import parse_query
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Fault,
    FaultInjector,
    FaultPlan,
    ResilientEndpoint,
    RetryPolicy,
)
from repro.serving import QueryCache
from repro.store import Endpoint, EndpointStats, Graph

EX = "http://example.org/"


def iri(name):
    return IRI(EX + name)


def small_graph():
    g = Graph()
    for index in range(6):
        g.add(Triple(iri(f"obs{index}"), iri("dim"), iri(f"m{index % 2}")))
        g.add(Triple(iri(f"obs{index}"), iri("val"), literal_from_python(index * 10)))
    g.add(Triple(iri("m0"), iri("label"), Literal("Member Zero")))
    return g


SELECT_Q = f"SELECT ?m WHERE {{ ?o <{EX}dim> ?m }}"
ASK_TRUE = f"ASK {{ ?o <{EX}dim> <{EX}m0> }}"
ASK_FALSE = f"ASK {{ ?o <{EX}dim> <{EX}nope> }}"


@pytest.fixture
def endpoint():
    return Endpoint(small_graph())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# Error hierarchy


class TestErrorHierarchy:
    def test_transient_branch(self):
        assert issubclass(EndpointUnavailableError, TransientError)
        assert issubclass(EndpointUnavailableError, QueryEvaluationError)
        assert issubclass(CircuitOpenError, TransientError)
        assert not issubclass(QueryTimeoutError, TransientError)


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(TransientError("x"))
        assert policy.is_transient(EndpointUnavailableError("x"))
        assert not policy.is_transient(QueryTimeoutError("x"))
        assert not policy.is_transient(ValueError("x"))
        # Retrying against an open breaker defeats its fail-fast purpose.
        assert not policy.is_transient(CircuitOpenError("x"))

    def test_retry_timeouts_opt_in(self):
        policy = RetryPolicy(retry_timeouts=True)
        assert policy.is_transient(QueryTimeoutError("x"))
        assert not policy.is_transient(CircuitOpenError("x"))

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=4, base_delay=0.1, multiplier=2.0,
                             max_delay=0.5, jitter=0.2, seed=7)
        schedule = policy.delays()
        assert schedule == policy.delays()  # pure function of (seed, attempt)
        assert len(schedule) == 4
        for attempt, delay in enumerate(schedule):
            raw = min(0.5, 0.1 * 2.0 ** attempt)
            assert raw * 0.8 <= delay <= raw * 1.2
        assert policy.delays(salt=1) != schedule  # salt decorrelates

    def test_no_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0,
                             jitter=0.0)
        assert policy.delays() == [0.1, 0.2, 0.4]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        defaults = dict(failure_rate=0.5, window=8, min_calls=4,
                        recovery_timeout=10.0, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults), clock

    def run_failures(self, breaker, n):
        for _ in range(n):
            breaker.acquire()
            breaker.record_failure()

    def test_trips_at_failure_rate(self):
        breaker, _ = self.make()
        self.run_failures(breaker, 3)
        assert breaker.state == CLOSED  # below min_calls
        self.run_failures(breaker, 1)
        assert breaker.state == OPEN
        assert breaker.stats.trips == 1

    def test_successes_keep_it_closed(self):
        breaker, _ = self.make()
        for _ in range(20):
            breaker.acquire()
            breaker.record_success()
        self.run_failures(breaker, 3)
        assert breaker.state == CLOSED  # 3/8 failures < 0.5 in the window

    def test_open_sheds_with_retry_hint(self):
        breaker, clock = self.make()
        self.run_failures(breaker, 4)
        with pytest.raises(CircuitOpenError) as exc_info:
            breaker.acquire()
        assert "shed" in str(exc_info.value)
        assert breaker.stats.rejections == 1
        clock.advance(5.0)
        with pytest.raises(CircuitOpenError):
            breaker.acquire()  # still open: recovery timeout not elapsed

    def test_half_open_probe_then_close(self):
        breaker, clock = self.make()
        self.run_failures(breaker, 4)
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        breaker.acquire()  # the probe slot
        with pytest.raises(CircuitOpenError):
            breaker.acquire()  # only one probe admitted
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.stats.closes == 1
        # The window was cleared: old failures don't count anymore.
        self.run_failures(breaker, 3)
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make()
        self.run_failures(breaker, 4)
        clock.advance(10.0)
        breaker.acquire()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.stats.trips == 2
        clock.advance(9.0)
        assert breaker.state == OPEN  # recovery clock restarted at reopen
        clock.advance(1.0)
        assert breaker.state == HALF_OPEN

    def test_multi_probe_close(self):
        breaker, clock = self.make(half_open_probes=2)
        self.run_failures(breaker, 4)
        clock.advance(10.0)
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # one of two probes succeeded
        breaker.acquire()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_event_log_trajectory(self):
        breaker, clock = self.make()
        self.run_failures(breaker, 4)
        with pytest.raises(CircuitOpenError):
            breaker.acquire()
        clock.advance(10.0)
        breaker.acquire()
        breaker.record_success()
        assert [event.transition for event in breaker.events] == [
            "trip", "reject", "probe", "close",
        ]

    def test_reset(self):
        breaker, _ = self.make()
        self.run_failures(breaker, 4)
        breaker.reset()
        assert breaker.state == CLOSED
        breaker.acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_rate=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector


class TestFaultPlan:
    def test_random_is_deterministic(self):
        calls = [(index, "select") for index in range(50)]
        plans = [FaultPlan.random(3, timeout_rate=0.2, transient_rate=0.2,
                                  latency_rate=0.2) for _ in range(2)]
        decisions = [[plan.fault_for(*call) for call in calls] for plan in plans]
        assert decisions[0] == decisions[1]
        kinds = {fault.kind for fault in decisions[0]}
        assert "ok" in kinds and len(kinds) > 1

    def test_schedule_pins_faults(self):
        plan = FaultPlan.from_schedule({1: "timeout", 3: Fault("transient")})
        assert plan.fault_for(0, "ask").kind == "ok"
        assert plan.fault_for(1, "ask").kind == "timeout"
        assert plan.fault_for(3, "select").kind == "transient"

    def test_ops_filter(self):
        plan = FaultPlan.from_schedule({0: "timeout"}, ops=["keyword"])
        assert plan.fault_for(0, "select").kind == "ok"
        assert plan.fault_for(0, "keyword").kind == "timeout"

    def test_outage_window_forces_transient(self):
        plan = FaultPlan(lambda index, op: Fault("ok"), outages=[(2, 5)])
        assert plan.fault_for(1, "ask").kind == "ok"
        assert all(plan.fault_for(i, "ask").kind == "transient" for i in (2, 3, 4))
        assert plan.fault_for(5, "ask").kind == "ok"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("explosion")


class TestFaultInjector:
    def test_injects_per_schedule(self, endpoint):
        plan = FaultPlan.from_schedule({0: "timeout", 1: "transient"})
        injector = FaultInjector(endpoint, plan)
        with pytest.raises(QueryTimeoutError):
            injector.select(SELECT_Q)
        with pytest.raises(EndpointUnavailableError):
            injector.ask(ASK_TRUE)
        assert injector.ask(ASK_TRUE) is True  # index 2: healthy
        assert [event.kind for event in injector.events] == [
            "timeout", "transient", "ok",
        ]
        assert injector.faults_injected() == 2

    def test_latency_uses_injected_sleep(self, endpoint):
        slept = []
        plan = FaultPlan.from_schedule({0: Fault("latency", latency=0.25)})
        injector = FaultInjector(endpoint, plan, sleep=slept.append)
        assert len(injector.select(SELECT_Q)) == 6
        assert slept == [0.25]

    def test_query_dispatch_and_passthrough(self, endpoint):
        injector = FaultInjector(endpoint, FaultPlan.healthy())
        assert injector.query(ASK_TRUE) is True
        assert len(injector.query(SELECT_Q)) == 6
        assert injector.stats is endpoint.stats
        assert injector.graph is endpoint.graph
        assert injector.default_timeout is None

    def test_disarm_is_invisible(self, endpoint):
        plan = FaultPlan.from_schedule({0: "timeout"})
        injector = FaultInjector(endpoint, plan)
        injector.disarm()
        assert injector.ask(ASK_TRUE) is True  # not injected, not counted
        assert injector.events == []
        injector.arm()
        with pytest.raises(QueryTimeoutError):
            injector.ask(ASK_TRUE)  # schedule resumes at call index 0


# ---------------------------------------------------------------------------
# ResilientEndpoint


def resilient(endpoint, schedule, **kwargs):
    """A resilient endpoint over an injector with a pinned schedule."""
    injector = FaultInjector(endpoint, FaultPlan.from_schedule(schedule))
    kwargs.setdefault("sleep", lambda _s: None)
    return ResilientEndpoint(injector, **kwargs)


class TestResilientEndpoint:
    def test_retry_recovers_transient(self, endpoint):
        guarded = resilient(endpoint, {0: "transient"},
                            retry=RetryPolicy(max_retries=2, jitter=0.0))
        assert len(guarded.select(SELECT_Q)) == 6
        snap = guarded.resilience.snapshot()
        assert (snap.calls, snap.retries, snap.recovered, snap.giveups) == (1, 1, 1, 0)

    def test_budget_exhaustion_reraises(self, endpoint):
        guarded = resilient(endpoint, {0: "transient", 1: "transient"},
                            retry=RetryPolicy(max_retries=1, jitter=0.0))
        with pytest.raises(EndpointUnavailableError):
            guarded.select(SELECT_Q)
        snap = guarded.resilience.snapshot()
        assert (snap.retries, snap.recovered, snap.giveups) == (1, 0, 1)

    def test_no_policy_means_no_retries(self, endpoint):
        guarded = resilient(endpoint, {0: "transient"})
        with pytest.raises(EndpointUnavailableError):
            guarded.select(SELECT_Q)
        assert guarded.resilience.snapshot().retries == 0

    def test_timeouts_not_retried_by_default(self, endpoint):
        guarded = resilient(endpoint, {0: "timeout"},
                            retry=RetryPolicy(max_retries=3, jitter=0.0))
        with pytest.raises(QueryTimeoutError):
            guarded.select(SELECT_Q)
        assert guarded.resilience.snapshot().retries == 0

    def test_timeouts_retried_on_opt_in(self, endpoint):
        guarded = resilient(
            endpoint, {0: "timeout"},
            retry=RetryPolicy(max_retries=1, jitter=0.0, retry_timeouts=True),
        )
        assert len(guarded.select(SELECT_Q)) == 6
        assert guarded.resilience.snapshot().recovered == 1

    def test_backoff_schedule_honored(self, endpoint):
        slept = []
        injector = FaultInjector(
            endpoint,
            FaultPlan.from_schedule({0: "transient", 1: "transient"}),
        )
        policy = RetryPolicy(max_retries=2, base_delay=0.1, multiplier=2.0,
                             jitter=0.0)
        guarded = ResilientEndpoint(injector, retry=policy, sleep=slept.append)
        guarded.select(SELECT_Q)
        assert slept == [0.1, 0.2]

    def test_breaker_trips_and_sheds(self, endpoint):
        schedule = {index: "transient" for index in range(8)}
        breaker = CircuitBreaker(failure_rate=0.5, window=8, min_calls=4,
                                 recovery_timeout=100.0, clock=FakeClock())
        guarded = resilient(endpoint, schedule, breaker=breaker)
        for _ in range(4):
            with pytest.raises(EndpointUnavailableError):
                guarded.ask(ASK_TRUE)
        with pytest.raises(CircuitOpenError):
            guarded.ask(ASK_TRUE)
        assert breaker.state == OPEN
        assert guarded.resilience.snapshot().breaker_rejections == 1
        # The shed call never reached the injector.
        assert len(guarded.events) == 4

    def test_breaker_recovers_through_probe(self, endpoint):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_rate=0.5, window=8, min_calls=2,
                                 recovery_timeout=5.0, clock=clock)
        guarded = resilient(endpoint, {0: "transient", 1: "transient"},
                            breaker=breaker)
        for _ in range(2):
            with pytest.raises(EndpointUnavailableError):
                guarded.ask(ASK_TRUE)
        assert breaker.state == OPEN
        clock.advance(5.0)
        assert guarded.ask(ASK_TRUE) is True  # the probe, index 2: healthy
        assert breaker.state == CLOSED
        transitions = [event.transition for event in breaker.events]
        assert transitions == ["trip", "probe", "close"]

    def test_deterministic_error_counts_as_breaker_success(self, endpoint):
        breaker = CircuitBreaker(failure_rate=0.5, window=4, min_calls=2,
                                 clock=FakeClock())
        guarded = ResilientEndpoint(
            FaultInjector(endpoint, FaultPlan.healthy()), breaker=breaker,
        )
        for _ in range(6):
            with pytest.raises(Exception):
                guarded.query("SELECT ?x WHERE { broken", timeout=None)
        assert breaker.state == CLOSED  # endpoint is reachable and healthy

    def test_serve_stale_answers_while_open(self, endpoint):
        clock = FakeClock()
        # 0.6 with min_calls=2: the initial success plus two failures trips
        # (2/3 >= 0.6), so both injected transients surface before the trip.
        breaker = CircuitBreaker(failure_rate=0.6, window=4, min_calls=2,
                                 recovery_timeout=1000.0, clock=clock)
        guarded = resilient(endpoint, {1: "transient", 2: "transient"},
                            breaker=breaker, serve_stale=True)
        fresh = guarded.select(SELECT_Q)  # index 0: healthy, populates stale tier
        for _ in range(2):
            with pytest.raises(EndpointUnavailableError):
                guarded.select(SELECT_Q)
        assert breaker.state == OPEN
        stale = guarded.select(SELECT_Q)  # shed, answered from the stale tier
        assert list(stale.rows) == list(fresh.rows)
        assert stale is not fresh  # defensive copy
        snap = guarded.resilience.snapshot()
        assert snap.breaker_rejections == 1
        assert snap.stale_served == 1
        with pytest.raises(CircuitOpenError):
            guarded.ask(ASK_FALSE)  # never succeeded -> nothing stale to serve

    def test_is_non_empty_passes_through(self, endpoint):
        guarded = resilient(endpoint, {})
        assert guarded.is_non_empty(parse_query(SELECT_Q))


# ---------------------------------------------------------------------------
# The shared decorator surface


class TestEndpointDecorator:
    def test_probes_read_through_the_chain(self, endpoint):
        """The stats probes the CLI and /stats make on whatever endpoint
        they hold: each decorator's own state, the rest read through."""
        guarded = resilient(endpoint, {0: "transient"},
                            retry=RetryPolicy(max_retries=1, jitter=0.0),
                            breaker=CircuitBreaker())
        assert len(guarded.select(SELECT_Q)) == 6
        assert guarded.resilience.snapshot().retries == 1
        assert guarded.breaker.state == CLOSED
        assert [event.kind for event in guarded.events] == ["transient", "ok"]
        injector = guarded._inner
        assert getattr(injector, "resilience", None) is None
        assert getattr(injector, "breaker", None) is None
        assert getattr(ResilientEndpoint(endpoint), "events", None) is None
        for decorator in (guarded, injector):
            assert decorator.stats is endpoint.stats
            assert decorator.graph is endpoint.graph
            assert decorator.text_index is endpoint.text_index

    def test_cache_and_mutate_reach_the_endpoint(self, endpoint):
        from repro.serving import QueryCache

        guarded = resilient(endpoint, {})
        cache = QueryCache()
        guarded.cache = cache
        assert endpoint.cache is cache and guarded.cache is cache
        guarded.mutate(lambda g: g.add(Triple(iri("obs9"), iri("dim"),
                                              iri("m0"))))
        assert len(guarded.select(SELECT_Q)) == 7

    def test_query_injects_on_the_resolved_kind(self, endpoint):
        injector = FaultInjector(endpoint, FaultPlan.healthy())
        guarded = ResilientEndpoint(injector)
        assert guarded.query(ASK_TRUE) is True
        assert len(guarded.query(SELECT_Q)) == 6
        assert [event.op for event in injector.events] == ["ask", "select"]
        assert guarded.resilience.snapshot().calls == 2


# ---------------------------------------------------------------------------
# Degraded REOLAP validation (partial-failure semantics)


class _Candidate:
    """A stand-in candidate query: validation only reads ``to_select()``."""

    def __init__(self, member):
        self.member = member

    def to_select(self):
        return parse_query(
            f"SELECT ?o WHERE {{ ?o <{EX}dim> <{EX}{self.member}> }}")


class TestDegradedValidation:
    MEMBERS = ["m0", "nope", "m1"]

    def candidates(self):
        return [_Candidate(member) for member in self.MEMBERS]

    def test_clean_validation_is_not_degraded(self, endpoint):
        report = SynthesisReport()
        kept = _validate_candidates(endpoint, self.candidates(), report,
                                    degrade=True)
        assert [c.member for c in kept] == ["m0", "m1"]
        assert not report.degraded and report.probe_failures == 0
        assert report.candidates_empty == 1

    def test_faulted_probe_drops_its_candidate(self, endpoint):
        # Calls 0-2 are the round's ASKs; the fault at call 2 ends the
        # round, so calls 3-5 re-ask each candidate alone, and the fault
        # at call 5 is the third candidate's own probe.
        injector = FaultInjector(
            endpoint, FaultPlan.from_schedule({2: "timeout", 5: "timeout"}),
        )
        report = SynthesisReport()
        kept = _validate_candidates(injector, self.candidates(), report,
                                    degrade=True)
        assert [c.member for c in kept] == ["m0"]  # dropped, never guessed
        assert report.degraded and report.probe_failures == 1
        assert report.candidates_empty == 1
        assert [event.op for event in injector.events] == ["ask"] * 6

    def test_faulted_round_is_decided_per_candidate(self, endpoint):
        injector = FaultInjector(
            endpoint, FaultPlan.from_schedule({1: "transient"}),
        )
        report = SynthesisReport()
        kept = _validate_candidates(injector, self.candidates(), report,
                                    degrade=True)
        assert [c.member for c in kept] == ["m0", "m1"]  # nothing lost
        assert report.degraded and report.probe_failures == 0

    def test_fault_propagates_without_degrade(self, endpoint):
        injector = FaultInjector(
            endpoint, FaultPlan.from_schedule({1: "transient"}),
        )
        with pytest.raises(TransientError):
            _validate_candidates(injector, self.candidates(), SynthesisReport())

    def test_each_probe_has_its_own_cache_entry(self):
        endpoint = Endpoint(small_graph(), cache=QueryCache())
        for _ in range(2):
            _validate_candidates(endpoint, self.candidates(), SynthesisReport())
        assert endpoint.stats.ask_queries == 6
        assert endpoint.stats.cache_hits == 3


# ---------------------------------------------------------------------------
# Default-timeout sentinel (satellite: explicit None / 0 must be honored)


class TestTimeoutSentinel:
    def test_default_applies_when_omitted(self):
        endpoint = Endpoint(small_graph(), default_timeout=0)
        with pytest.raises(QueryTimeoutError):
            endpoint.select(SELECT_Q)

    def test_explicit_none_disables_default(self):
        endpoint = Endpoint(small_graph(), default_timeout=0)
        assert len(endpoint.select(SELECT_Q, timeout=None)) == 6

    def test_explicit_zero_overrides_no_default(self):
        endpoint = Endpoint(small_graph())  # no default timeout
        with pytest.raises(QueryTimeoutError):
            endpoint.select(SELECT_Q, timeout=0)

    def test_ask_and_batch_honor_sentinel(self):
        endpoint = Endpoint(small_graph(), default_timeout=0)
        assert endpoint.ask(ASK_TRUE, timeout=None) is True
        assert endpoint.ask_batch([ASK_TRUE, ASK_FALSE], timeout=None) == [True, False]
        with pytest.raises(QueryTimeoutError):
            endpoint.ask(ASK_TRUE)


# ---------------------------------------------------------------------------
# EndpointStats thread safety (satellite)


class TestEndpointStatsConcurrency:
    def test_concurrent_adds_are_not_lost(self):
        stats = EndpointStats()
        n_threads, n_increments = 8, 2000

        def hammer():
            for _ in range(n_increments):
                stats.add("select_queries")
                stats.add("cache_hits")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.select_queries == n_threads * n_increments
        assert stats.cache_hits == n_threads * n_increments

    def test_snapshot_is_consistent_under_writes(self):
        stats = EndpointStats()
        stop = threading.Event()
        torn = []

        def writer():
            # select_queries and ask_queries move together inside one
            # locked add-pair via reset+refill; use add() twice under
            # contention and rely on snapshot never reading mid-reset.
            while not stop.is_set():
                stats.add("select_queries")
                stats.reset()

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                if snap.select_queries < 0:
                    torn.append(snap)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        stop_timer = threading.Timer(0.2, stop.set)
        stop_timer.start()
        for thread in threads:
            thread.join()
        stop_timer.cancel()
        assert not torn
        stats.reset()
        assert stats.snapshot().total_queries == 0

    def test_snapshot_excludes_lock(self):
        snap = EndpointStats().snapshot()
        assert snap.select_queries == 0
        snap.add("select_queries")  # the copy has its own working lock
        assert snap.select_queries == 1
