"""Serving-layer throughput: cached vs uncached, 1 vs N workers.

Exploratory sessions re-issue near-identical queries constantly (REOLAP
probes, refinement menus), so the result cache should dominate on repeated
workloads — the acceptance bar is a ≥5x speedup over the uncached
endpoint.  Worker scaling is reported for the record: with a pure-Python
evaluator the GIL caps parallel speedup, so the interesting number is that
N workers with a shared cache stay *at least* in the same league as one
(the cache, not the pool, carries the win until evaluation releases the
GIL — the sharding/async PRs this subsystem exists for).

Sizes are environment-tunable so CI can smoke the benchmark quickly::

    REPRO_BENCH_SERVING_OBS=150 REPRO_BENCH_SERVING_REPS=3 \
        pytest benchmarks/test_serving_throughput.py
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import wait

import pytest

from repro.datasets import generate_eurostat
from repro.serving import QueryCache, QueryService
from repro.store import Endpoint

from .helpers import emit, fmt_ms, format_table, timed

N_OBSERVATIONS = int(os.environ.get("REPRO_BENCH_SERVING_OBS", "800"))
N_REPETITIONS = int(os.environ.get("REPRO_BENCH_SERVING_REPS", "25"))

# Distinct query shapes an exploration front end keeps re-issuing: full
# scans, grouped aggregates, existence probes.
QUERY_SHAPES = (
    "SELECT ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
    "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s "
    "ORDER BY DESC(?n) LIMIT 10",
    "ASK { ?s ?p ?o }",
)


@pytest.fixture(scope="module")
def graph():
    kg = generate_eurostat(n_observations=N_OBSERVATIONS, scale=0.3, seed=7)
    return kg.graph


@pytest.fixture(scope="module")
def workload():
    rng = random.Random(7)
    queries = [q for q in QUERY_SHAPES for _ in range(N_REPETITIONS)]
    rng.shuffle(queries)
    return queries


def run_serial(endpoint: Endpoint, queries) -> float:
    _, elapsed = timed(lambda: [endpoint.query(q) for q in queries])
    return elapsed


def test_cached_vs_uncached_speedup(graph, workload):
    """The acceptance bar: ≥5x on a repeated-query workload."""
    uncached = Endpoint(graph)
    cold = Endpoint(graph, cache=QueryCache())

    uncached_s = run_serial(uncached, workload)
    cached_s = run_serial(cold, workload)
    speedup = uncached_s / cached_s

    stats = cold.cache.results.stats
    table = format_table(
        ["configuration", "queries", "wall time", "per query", "speedup"],
        [
            ["uncached", len(workload), fmt_ms(uncached_s),
             fmt_ms(uncached_s / len(workload)), "1.0x"],
            ["cached", len(workload), fmt_ms(cached_s),
             fmt_ms(cached_s / len(workload)), f"{speedup:.1f}x"],
            [f"(cache: {stats.hits} hits / {stats.misses} misses)",
             "", "", "", ""],
        ],
    )
    emit("serving_cache_speedup",
         f"Serving cache speedup ({N_OBSERVATIONS} observations, "
         f"{len(QUERY_SHAPES)} shapes x {N_REPETITIONS} reps)", table)

    assert stats.hits == len(workload) - len(QUERY_SHAPES)
    # A workload with R repetitions per shape can speed up at most Rx (the
    # cold misses still evaluate), so only hold the 5x acceptance bar when
    # repetition makes it reachable; tiny smoke runs get a scaled bar.
    ceiling = len(workload) / len(QUERY_SHAPES)
    bar = 5.0 if ceiling >= 10 else 0.6 * ceiling
    assert speedup >= bar, (
        f"cache speedup {speedup:.1f}x below the {bar:.1f}x acceptance bar "
        f"(uncached {uncached_s:.3f}s vs cached {cached_s:.3f}s)"
    )


def test_worker_scaling(graph, workload):
    """Throughput of 1 vs N workers pushing the workload through a service."""
    rows = []
    reference = None
    for workers in (1, 4, 8):
        service = QueryService(graph, workers=workers,
                               max_queue=len(workload))
        try:
            start = time.perf_counter()
            futures = [service.submit(q) for q in workload]
            done, not_done = wait(futures, timeout=600)
            elapsed = time.perf_counter() - start
            assert not not_done
            results = sorted(
                str(f.result()) for f in done
            )
            if reference is None:
                reference = results
            else:
                assert results == reference, "worker count changed results"
            throughput = len(workload) / elapsed
            rows.append([f"{workers} worker(s)", len(workload),
                         fmt_ms(elapsed), f"{throughput:.0f} q/s"])
        finally:
            service.shutdown()
    emit("serving_worker_scaling",
         f"Worker scaling, shared cache ({N_OBSERVATIONS} observations)",
         format_table(["configuration", "queries", "wall time", "throughput"],
                      rows))
