"""Fault tolerance for the query path: injection, retries, breaking, degradation.

The paper's evaluation already met endpoint failure (the Similarity
experiment hit Virtuoso's 15-minute timeout on DBpedia, Section 7), and
the ROADMAP's production north star serves millions of users — where
transient faults are routine, not exceptional.  This subsystem supplies:

* :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`), the test substrate for
  everything below;
* :mod:`repro.resilience.diskfaults` — the same idea one layer down:
  :class:`FaultyFS` injects disk failures, short writes, and simulated
  power loss (:class:`SimulatedCrash`) into the durable store's file I/O;
* :mod:`repro.resilience.policy` — :class:`RetryPolicy`: exponential
  backoff with deterministic jitter, retrying only the
  :class:`~repro.errors.TransientError` branch;
* :mod:`repro.resilience.breaker` — a closed/open/half-open
  :class:`CircuitBreaker` over a sliding failure-rate window;
* :mod:`repro.resilience.endpoint` — :class:`EndpointDecorator`, the one
  copy of the endpoint surface both decorators share;
  :class:`ResilientEndpoint`, the decorator threading retry + breaker
  (+ optional serve-stale answers) under any endpoint consumer, and
  :func:`with_resilience`, which applies the CLI's resilience flags.
"""

from .breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerEvent,
    BreakerStats,
    CircuitBreaker,
)
from .diskfaults import DiskFaultPlan, FaultyFS, SimulatedCrash
from .endpoint import (
    EndpointDecorator,
    ResilienceStats,
    ResilientEndpoint,
    with_resilience,
)
from .faults import FAULT_KINDS, OK, Fault, FaultEvent, FaultInjector, FaultPlan
from .policy import RetryPolicy

__all__ = [
    "BreakerEvent",
    "BreakerStats",
    "CircuitBreaker",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "DiskFaultPlan",
    "EndpointDecorator",
    "Fault",
    "FaultEvent",
    "FaultyFS",
    "SimulatedCrash",
    "FaultInjector",
    "FaultPlan",
    "FAULT_KINDS",
    "OK",
    "ResilienceStats",
    "ResilientEndpoint",
    "RetryPolicy",
    "with_resilience",
]
