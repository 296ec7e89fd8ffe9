"""The endpoint decorators: one shared surface, and the resilient one.

:class:`EndpointDecorator` is the one copy of the endpoint query surface
a decorator needs: every query call is routed through a single ``_call``
hook, and every other attribute is read from the wrapped endpoint.
:class:`ResilientEndpoint` (here) and
:class:`~repro.resilience.FaultInjector` override only ``_call``.

:class:`ResilientEndpoint` wraps any endpoint-shaped object (a real
:class:`~repro.store.Endpoint`, a :class:`~repro.resilience.FaultInjector`
in chaos tests) and gives every call the failure-handling discipline the
ROADMAP's production target demands:

* transient faults are retried per a :class:`~repro.resilience.RetryPolicy`
  (exponential backoff, deterministic jitter, bounded budget);
* persistent faults trip a per-endpoint
  :class:`~repro.resilience.CircuitBreaker`, shedding calls instead of
  queueing them behind a sick store;
* with ``serve_stale=True``, SELECT/ASK/CONSTRUCT answers recorded before
  the breaker opened are served (marked in stats) while it is open — the
  cache-epoch fallback the serving layer exposes as serve-stale mode.

Every retry, trip, shed and stale answer is counted in
:class:`ResilienceStats`, so the chaos suite can assert exact behaviour.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ..errors import CircuitOpenError, QueryTimeoutError, TransientError
from ..serving.cache import LRUCache, MISS
from ..sparql.results import ResultSet
from ..store.endpoint import DEFAULT_TIMEOUT, Endpoint
from .breaker import CircuitBreaker
from .policy import RetryPolicy

__all__ = ["EndpointDecorator", "ResilienceStats", "ResilientEndpoint",
           "with_resilience"]

#: Errors that count against the breaker: the endpoint itself misbehaved.
#: Deterministic errors (syntax, bad input) are evidence the endpoint is
#: *reachable* and evaluating, so they count as breaker successes.
_ENDPOINT_FAULTS = (TransientError, QueryTimeoutError)


@dataclass
class ResilienceStats:
    """Counters for one resilient endpoint; shared-lock protected."""

    calls: int = 0  # guarded calls entered
    retries: int = 0  # sleep-then-retry transitions
    recovered: int = 0  # calls that succeeded after >= 1 retry
    giveups: int = 0  # transient faults re-raised with budget exhausted
    breaker_rejections: int = 0  # calls shed by the open breaker
    stale_served: int = 0  # shed calls answered from the stale tier
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, counter: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    def snapshot(self) -> "ResilienceStats":
        with self._lock:
            return ResilienceStats(
                self.calls, self.retries, self.recovered, self.giveups,
                self.breaker_rejections, self.stale_served,
            )


class EndpointDecorator:
    """The endpoint query surface over an inner endpoint, routed through
    :meth:`_call`; every other attribute (``graph``, ``stats``, ``cache``,
    ``mutate``, an inner decorator's ``events`` …) reads straight through.

    Setting ``cache`` attaches it to the endpoint at the bottom of the
    chain, where results are actually cached.
    """

    def __init__(self, inner):
        self._inner = inner

    def _call(self, op: str, fn, *args, **kwargs):
        """Run one query call ``fn(*args, **kwargs)``; ``op`` names it."""
        return fn(*args, **kwargs)

    def select(self, query, timeout=DEFAULT_TIMEOUT):
        return self._call("select", self._inner.select, query, timeout=timeout)

    def ask(self, query, timeout=DEFAULT_TIMEOUT):
        return self._call("ask", self._inner.ask, query, timeout=timeout)

    def construct(self, query, timeout=DEFAULT_TIMEOUT):
        return self._call("construct", self._inner.construct, query,
                          timeout=timeout)

    def query(self, text: str, timeout=DEFAULT_TIMEOUT):
        return self._call("query", self._inner.query, text, timeout=timeout)

    def resolve_keyword(self, keyword: str, exact: bool = True):
        return self._call("keyword", self._inner.resolve_keyword, keyword,
                          exact=exact)

    # Endpoint's composites re-enter through self.ask/self.select, so
    # each ASK or probe leg is a separate decorated call.
    ask_batch = Endpoint.ask_batch
    is_non_empty = Endpoint.is_non_empty

    @property
    def cache(self):
        return self._inner.cache

    @cache.setter
    def cache(self, cache) -> None:
        self._inner.cache = cache

    def __getattr__(self, name: str):
        if name == "_inner":  # not yet set (copy, unpickling)
            raise AttributeError(name)
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} over {self._inner!r}>"


class ResilientEndpoint(EndpointDecorator):
    """Retry + circuit-breaker decorator over the endpoint surface.

    ``sleep`` is injectable (chaos tests pass a no-op or virtual clock),
    and the retry jitter comes from the policy's seed, so behaviour under
    a given fault schedule is fully deterministic.
    """

    def __init__(
        self,
        inner: Endpoint,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        serve_stale: bool = False,
        stale_size: int = 256,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(inner)
        # No policy means no retries: a breaker-only (or stale-only)
        # configuration must not silently re-issue queries.
        self.retry = retry if retry is not None else RetryPolicy(max_retries=0)
        self.breaker = breaker
        self.serve_stale = serve_stale
        self._stale = LRUCache(stale_size) if serve_stale else None
        self._sleep = sleep
        self.resilience = ResilienceStats()

    # -- the guarded call path ---------------------------------------------

    def _stale_key(self, op: str, query) -> tuple | None:
        if self._stale is None:
            return None
        text = query if isinstance(query, str) else query.to_sparql()
        return (op, text)

    def _serve_stale(self, key: tuple | None, shed: CircuitOpenError):
        """Answer a shed call from the last-known-good tier, or re-raise."""
        if key is not None:
            value = self._stale.get(key)
            if value is not MISS:
                self.resilience.add("stale_served")
                if isinstance(value, ResultSet):
                    return ResultSet(value.variables, value.rows)
                return value
        raise shed

    def _call(self, op: str, fn, query, *args, **kwargs):
        self.resilience.add("calls")
        stale_key = self._stale_key(op, query)
        attempt = 0
        while True:
            if self.breaker is not None:
                try:
                    self.breaker.acquire()
                except CircuitOpenError as shed:
                    self.resilience.add("breaker_rejections")
                    return self._serve_stale(stale_key, shed)
            try:
                result = fn(query, *args, **kwargs)
            except _ENDPOINT_FAULTS as error:
                if self.breaker is not None:
                    self.breaker.record_failure()
                if self.retry.is_transient(error) and attempt < self.retry.max_retries:
                    self.resilience.add("retries")
                    self._sleep(self.retry.delay(attempt))
                    attempt += 1
                    continue
                self.resilience.add("giveups")
                raise
            except Exception:
                # Deterministic failure: the endpoint answered, the query
                # is at fault.  Health signal for the breaker; no retry.
                if self.breaker is not None:
                    self.breaker.record_success()
                raise
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                if attempt:
                    self.resilience.add("recovered")
                if stale_key is not None:
                    value = result
                    if isinstance(value, ResultSet):
                        value = ResultSet(value.variables, value.rows)
                    self._stale.put(stale_key, value)
                return result


def with_resilience(endpoint, retries: int = 0, breaker: bool = False,
                    serve_stale: bool = False):
    """``endpoint`` decorated as the ``--retries``/``--breaker``/
    ``--serve-stale`` flags ask, or unchanged when none is set.

    Serve-stale implies a breaker: stale answers stand in for calls the
    open breaker sheds.
    """
    if not (retries or breaker or serve_stale):
        return endpoint
    return ResilientEndpoint(
        endpoint,
        retry=RetryPolicy(max_retries=retries),
        breaker=CircuitBreaker() if breaker or serve_stale else None,
        serve_stale=serve_stale,
    )
