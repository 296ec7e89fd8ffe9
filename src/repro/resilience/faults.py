"""Deterministic fault injection for the endpoint surface.

The paper's own evaluation met real endpoint failure — the Similarity
experiment hit Virtuoso's 15-minute timeout on DBpedia (Section 7) — but
an in-process store never fails on its own.  :class:`FaultInjector` wraps
any endpoint-shaped object and injects the faults a remote SPARQL service
exhibits: timeouts, transient evaluation errors, added latency, and flaky
keyword lookups.  A :class:`FaultPlan` decides the fault for every call
*deterministically* — either from a seeded RNG or from an explicit
schedule — so a chaos test that fails can be replayed exactly from its
seed, and the injector's event log is the ground truth the chaos suite
checks resilience behaviour against.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..errors import EndpointUnavailableError, QueryTimeoutError
from ..store.endpoint import Endpoint
from .endpoint import EndpointDecorator

__all__ = ["FAULT_KINDS", "Fault", "FaultEvent", "FaultInjector", "FaultPlan", "OK"]

#: Fault kinds a plan may emit.  ``ok`` passes the call through untouched.
FAULT_KINDS = ("ok", "timeout", "transient", "latency")


@dataclass(frozen=True)
class Fault:
    """One injection decision: what to do to a single endpoint call."""

    kind: str  # one of FAULT_KINDS
    latency: float = 0.0  # extra seconds before the call proceeds (kind="latency")

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")


#: The no-op decision; plans return it for healthy calls.
OK = Fault("ok")


@dataclass(frozen=True)
class FaultEvent:
    """One line of the injector's event log."""

    index: int  # global call index across the injector's lifetime
    op: str  # "select" | "ask" | "construct" | "query" | "keyword"
    kind: str  # the fault kind applied ("ok" for clean calls)
    latency: float = 0.0


class FaultPlan:
    """Decides the fault for the *n*-th endpoint call, deterministically.

    Two construction styles:

    * :meth:`random` — a seeded RNG draws one fault per call from
      configurable per-kind rates.  The decision sequence is a pure
      function of ``(seed, call order)``: replaying the same call
      sequence replays the same faults.
    * :meth:`from_schedule` — an explicit map from call index to
      :class:`Fault` (unlisted indices are healthy), for tests that pin
      exactly which probe fails.

    ``ops`` restricts injection to a subset of operations (e.g. only
    ``keyword`` lookups are flaky); other calls always pass through.
    An optional ``outages`` list of ``(start, stop)`` call-index windows
    forces the transient fault for every call inside a window — the
    sustained-failure shape that trips a circuit breaker.
    """

    def __init__(
        self,
        decide: Callable[[int, str], Fault],
        ops: Iterable[str] | None = None,
        outages: Iterable[tuple[int, int]] = (),
    ):
        self._decide = decide
        self._ops = None if ops is None else frozenset(ops)
        self._outages = tuple(outages)

    @classmethod
    def healthy(cls) -> "FaultPlan":
        return cls(lambda index, op: OK)

    @classmethod
    def random(
        cls,
        seed: int,
        timeout_rate: float = 0.0,
        transient_rate: float = 0.0,
        latency_rate: float = 0.0,
        max_latency: float = 0.005,
        ops: Iterable[str] | None = None,
        outages: Iterable[tuple[int, int]] = (),
    ) -> "FaultPlan":
        rng = random.Random(seed)
        lock = threading.Lock()

        def decide(index: int, op: str) -> Fault:
            # One draw per call under a lock: the sequence of decisions is
            # deterministic in call order even with concurrent callers.
            with lock:
                roll = rng.random()
                stretch = rng.random()
            if roll < timeout_rate:
                return Fault("timeout")
            if roll < timeout_rate + transient_rate:
                return Fault("transient")
            if roll < timeout_rate + transient_rate + latency_rate:
                return Fault("latency", latency=stretch * max_latency)
            return OK

        return cls(decide, ops=ops, outages=outages)

    @classmethod
    def from_schedule(
        cls,
        schedule: Mapping[int, Fault | str],
        ops: Iterable[str] | None = None,
    ) -> "FaultPlan":
        faults = {
            index: fault if isinstance(fault, Fault) else Fault(fault)
            for index, fault in schedule.items()
        }
        return cls(lambda index, op: faults.get(index, OK), ops=ops)

    def fault_for(self, index: int, op: str) -> Fault:
        for start, stop in self._outages:
            if start <= index < stop:
                return Fault("transient")
        if self._ops is not None and op not in self._ops:
            return OK
        return self._decide(index, op)


class FaultInjector(EndpointDecorator):
    """An endpoint decorator that injects faults per the plan.

    Any consumer — REOLAP, refinement operators,
    :class:`ResilientEndpoint`, the serving layer — can run against it
    unchanged.  Every call first asks the plan for a decision, appends a
    :class:`FaultEvent`, and then raises / delays / passes through
    accordingly:

    * ``timeout`` → :class:`~repro.errors.QueryTimeoutError`
    * ``transient`` → :class:`~repro.errors.EndpointUnavailableError`
    * ``latency`` → ``sleep(latency)`` then delegate
    * ``ok`` → delegate

    ``sleep`` is injectable so chaos tests can use a virtual clock.
    """

    def __init__(
        self,
        inner: Endpoint,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(inner)
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls = 0
        self._armed = True
        self._events: list[FaultEvent] = []

    # -- injection ---------------------------------------------------------

    @property
    def events(self) -> list[FaultEvent]:
        """A copy of the injection log, in call order."""
        with self._lock:
            return list(self._events)

    def faults_injected(self) -> int:
        with self._lock:
            return sum(1 for event in self._events if event.kind != "ok")

    def arm(self) -> None:
        """(Re-)enable injection; on by default."""
        with self._lock:
            self._armed = True

    def disarm(self) -> None:
        """Pass calls through untouched — neither counted nor logged.

        Lets a driver bootstrap (schema crawl, warm-up) against the clean
        store and start the fault schedule at call 0 of the workload it
        actually wants to shake.
        """
        with self._lock:
            self._armed = False

    def _admit(self, op: str) -> None:
        with self._lock:
            if not self._armed:
                return
            index = self._calls
            self._calls += 1
            fault = self.plan.fault_for(index, op)
            self._events.append(FaultEvent(index, op, fault.kind, fault.latency))
        if fault.kind == "timeout":
            raise QueryTimeoutError(f"injected timeout (call {index}, {op})")
        if fault.kind == "transient":
            raise EndpointUnavailableError(
                f"injected transient fault (call {index}, {op})"
            )
        if fault.kind == "latency":
            self._sleep(fault.latency)

    def _call(self, op: str, fn, *args, **kwargs):
        self._admit(op)
        return fn(*args, **kwargs)

    # Endpoint's dispatch (parsing through the inner endpoint's AST tier)
    # re-enters our own ask/select/construct, so the injection decision
    # lands on the resolved query kind.
    query = Endpoint.query

    def __repr__(self) -> str:
        return f"<FaultInjector {self.faults_injected()}/{self._calls} faulted over {self._inner!r}>"
