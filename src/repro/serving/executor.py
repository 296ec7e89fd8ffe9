"""The serving worker pool: per-tenant lanes, quotas, deadlines.

:class:`ServingExecutor` is the one queue every served request passes
through.  Each tenant gets its own bounded FIFO *lane* with a
:class:`TokenBucket` quota; a fixed set of worker threads takes the next
request round-robin across the non-empty lanes, so a hot tenant with a
deep backlog cannot push another tenant's single request behind it — the
wait a slow tenant observes is bounded by (active lanes × one request's
service time), not by the hot tenant's queue depth.  Admission never
blocks: an empty bucket raises :class:`~repro.errors.QuotaExceededError`
(HTTP 429) and a full lane :class:`~repro.errors.AdmissionError` (HTTP
503), before the request touches any shared resource.

Each request may carry a *deadline*; when a worker picks the request up,
the remaining budget is composed with the caller's cooperative evaluation
timeout (the evaluator's :class:`~repro.sparql.eval._Deadline` stride
checks), so time spent queued counts against the request — a request that
waited past its deadline is shed without touching the store.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import (
    AdmissionError,
    QuotaExceededError,
    RequestShedError,
    ServiceShutdownError,
)

__all__ = ["DEFAULT_TENANT", "ServingExecutor", "TokenBucket"]

#: The lane of in-process callers and of HTTP requests naming no tenant.
DEFAULT_TENANT = "public"

#: Per-lane lifetime counters; ``submitted`` always equals
#: ``completed + errors + shed`` once the lane is idle.
_COUNTERS = ("submitted", "completed", "errors", "quota_denied",
             "rejected", "shed")


class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at ``rate``/s.

    ``rate=None`` (or ``<= 0``) builds an unlimited bucket that always
    grants — the default for trusted/internal tenants.  Thread-safe.
    """

    def __init__(self, rate: float | None, burst: float = 1.0,
                 clock=time.monotonic):
        if rate is not None and rate > 0 and burst < 1:
            raise ValueError("burst must allow at least one request")
        self.rate = None if rate is None or rate <= 0 else float(rate)
        self.burst = float(burst)
        self._tokens = self.burst
        self._clock = clock
        self._updated = clock()
        self._lock = threading.Lock()

    def try_take(self, cost: float = 1.0) -> float:
        """Spend ``cost`` tokens if available.

        Returns ``0.0`` on success, otherwise the seconds until the bucket
        will hold enough tokens (the Retry-After hint).  Never blocks.
        """
        if self.rate is None:
            return 0.0
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            if self._tokens >= cost:
                self._tokens -= cost
                return 0.0
            return (cost - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current token count (refreshed); monitoring only."""
        if self.rate is None:
            return float("inf")
        with self._lock:
            now = self._clock()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            return self._tokens


@dataclass
class _Lane:
    """One tenant's FIFO queue, quota bucket and counters."""

    bucket: TokenBucket
    queue: deque = field(default_factory=deque)
    submitted: int = 0
    completed: int = 0
    errors: int = 0  # requests that ran and raised (timeouts included)
    quota_denied: int = 0  # token-bucket rejections (HTTP 429)
    rejected: int = 0  # lane-full rejections (HTTP 503)
    shed: int = 0  # deadline expired while queued (HTTP 503)


class ServingExecutor:
    """``workers`` threads draining per-tenant lanes round-robin.

    ``max_queue`` bounds each lane's waiting requests; ``default_quota``
    is the ``(rate, burst)`` of lanes created on first sight of a tenant
    (unlimited unless set), and :meth:`configure_tenant` overrides it per
    tenant.  A worker thread starts only when a request finds none idle,
    up to ``workers``.
    """

    def __init__(self, workers: int = 4, max_queue: int = 64,
                 name: str = "repro-serving"):
        if workers < 1:
            raise ValueError("executor needs at least one worker")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.workers = workers
        self.max_queue = max_queue
        self.default_quota: tuple[float | None, float] = (None, 1.0)
        self._name = name
        self._cond = threading.Condition()
        self._lanes: dict[str, _Lane] = {}
        self._order: list[_Lane] = []
        self._rr = 0
        self._threads: list[threading.Thread] = []
        self._idle = 0  # workers waiting for a request and not yet woken
        self._shutdown = False

    # -- tenants -----------------------------------------------------------

    def _lane(self, tenant: str) -> _Lane:
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = _Lane(TokenBucket(*self.default_quota))
            self._lanes[tenant] = lane
            self._order.append(lane)
        return lane

    def configure_tenant(self, tenant: str, quota_rate: float | None,
                         quota_burst: float = 1.0) -> None:
        """Install a tenant-specific quota (replacing the default bucket)."""
        with self._cond:
            self._lane(tenant).bucket = TokenBucket(quota_rate, quota_burst)

    def tenant_stats(self) -> dict[str, dict[str, int]]:
        """Each lane's counters, by tenant."""
        with self._cond:
            return {tenant: {name: getattr(lane, name) for name in _COUNTERS}
                    for tenant, lane in self._lanes.items()}

    @property
    def stats(self) -> dict[str, int]:
        """Pool totals: each counter summed over the lanes."""
        with self._cond:
            return {name: sum(getattr(lane, name) for lane in self._order)
                    for name in _COUNTERS}

    @property
    def pending(self) -> int:
        """Requests admitted but not yet picked up by a worker."""
        with self._cond:
            return sum(len(lane.queue) for lane in self._order)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        /,
        *args: Any,
        tenant: str = DEFAULT_TENANT,
        deadline: float | None = None,
        **kwargs: Any,
    ) -> Future:
        """Queue ``fn(*args, **kwargs)`` on ``tenant``'s lane, or refuse.

        Raises :class:`QuotaExceededError` when the tenant's bucket is
        empty, :class:`AdmissionError` when its lane is full, and
        :class:`ServiceShutdownError` after :meth:`shutdown`.
        ``deadline`` is an absolute ``time.monotonic()`` instant: the
        worker re-checks it as the request leaves the lane and tightens a
        ``timeout=`` keyword to the remaining budget, so the store-level
        cooperative timeout and the serving deadline compose.
        """
        with self._cond:
            if self._shutdown:
                raise ServiceShutdownError("executor has been shut down")
            lane = self._lane(tenant)
            wait = lane.bucket.try_take()
            if wait > 0.0:
                lane.quota_denied += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} exceeded its request quota; "
                    f"retry in {wait:.3f}s",
                    retry_after=wait,
                )
            if len(lane.queue) >= self.max_queue:
                lane.rejected += 1
                raise AdmissionError(
                    f"tenant {tenant!r} lane full "
                    f"({self.max_queue} queued); retry later"
                )
            future: Future = Future()
            lane.queue.append((future, fn, args, kwargs, deadline))
            lane.submitted += 1
            if self._idle:
                self._idle -= 1
                self._cond.notify()
            elif len(self._threads) < self.workers:
                thread = threading.Thread(
                    target=self._work,
                    name=f"{self._name}-{len(self._threads)}", daemon=True)
                thread.start()
                self._threads.append(thread)
            return future

    # -- workers -----------------------------------------------------------

    def _next(self) -> tuple[_Lane, tuple] | None:
        """Pop the head of the next non-empty lane after the last served."""
        count = len(self._order)
        for offset in range(count):
            index = (self._rr + offset) % count
            lane = self._order[index]
            if lane.queue:
                self._rr = index + 1
                return lane, lane.queue.popleft()
        return None

    def _work(self) -> None:
        while True:
            with self._cond:
                picked = self._next()
                while picked is None:
                    if self._shutdown:
                        return
                    self._idle += 1
                    self._cond.wait()
                    picked = self._next()
            self._run(*picked)

    def _count(self, lane: _Lane, counter: str) -> None:
        with self._cond:
            setattr(lane, counter, getattr(lane, counter) + 1)

    def _run(self, lane: _Lane, item: tuple) -> None:
        future, fn, args, kwargs, deadline = item
        if not future.set_running_or_notify_cancel():
            self._count(lane, "errors")
            return
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # Load shedding: the request aged out in its lane, so it
                # fails fast without ever touching the store.
                self._count(lane, "shed")
                future.set_exception(RequestShedError(
                    "request deadline expired while queued; shed"))
                return
            if "timeout" in kwargs:
                timeout = kwargs["timeout"]
                # A non-numeric timeout (None, or the endpoint's
                # DEFAULT_TIMEOUT sentinel) defers to the endpoint; the
                # request deadline still caps it from above.
                kwargs["timeout"] = (
                    min(timeout, remaining)
                    if isinstance(timeout, (int, float))
                    else remaining
                )
        try:
            result = fn(*args, **kwargs)
        except Exception as error:
            self._count(lane, "errors")
            future.set_exception(error)
        else:
            self._count(lane, "completed")
            future.set_result(result)

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting; the workers drain every queued request, then exit.

        Draining (rather than cancelling) is what lets the HTTP layer
        promise that accepted requests always get a real response.
        """
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
            threads = list(self._threads)
        if wait:
            for thread in threads:
                thread.join()

    def __enter__(self) -> "ServingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        state = "shutdown" if self._shutdown else "running"
        return (f"<ServingExecutor {state}: {self.workers} workers, "
                f"{len(self._lanes)} tenants, {self.pending} pending>")
