"""Compiled id-space join execution vs the term-space interpreter.

The engine's default execution path lowers WHERE bodies to id-space
operator plans (repro.sparql.operators): constants are encoded once at
compile time, bindings flow as flat integer register rows probing the
triple index's sorted runs directly, and terms are decoded only at the
projection boundary.  The term-space interpreter — the ``compile=False``
oracle and the fallback for multi-graph unions — re-encodes and
re-decodes every term at every extension step.

This benchmark times the dimension-chain join workload (the shape behind
every REOLAP candidate and refinement query) on the mid-size synthetic
Eurostat cube with **cold caches**: fresh evaluators, no result or plan
cache, so the measured gap is pure execution.

Result equivalence and a conservative wall-clock floor are hard
assertions; the >= 3x acceptance target is advisory (a warning), because
best-of-N timing ratios are noisy under shared-CI runner contention and
a hard 3x gate would fail pipelines for reasons unrelated to the code.

Sizes and bars are environment-tunable so CI can re-run the gate
quickly, or enforce the full target on quiet machines::

    REPRO_BENCH_JOIN_OBS=4000 pytest benchmarks/test_join_speedup.py
    REPRO_BENCH_JOIN_HARD_MIN_SPEEDUP=3.0 pytest benchmarks/test_join_speedup.py
"""

from __future__ import annotations

import os
import time
import warnings

from repro.core import VirtualSchemaGraph
from repro.datasets import generate_eurostat
from repro.qb import OBSERVATION_CLASS
from repro.sparql import Evaluator, parse_query

from .helpers import emit, emit_json, fmt_ms, format_table

N_OBSERVATIONS = int(os.environ.get("REPRO_BENCH_JOIN_OBS", "4000"))
N_REPETITIONS = int(os.environ.get("REPRO_BENCH_JOIN_REPS", "5"))
#: Advisory target — a shortfall emits a warning, not a failure.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_JOIN_MIN_SPEEDUP", "3.0"))
#: Hard floor — low enough that only a real regression (not runner
#: contention) can dip under it; typical measured speedup is ~4-5x.
HARD_MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_JOIN_HARD_MIN_SPEEDUP", "1.5"))


def _chain_query(vgraph, n_chains: int) -> str:
    """A SELECT * joining the observation type with n dimension chains."""
    patterns = [f"?o a {vgraph.observation_class.n3()} ."]
    levels = list(vgraph.all_levels())[:n_chains]
    for index, level in enumerate(levels):
        subject = "?o"
        for depth, predicate in enumerate(level.path):
            target = f"?v{index}_{depth}"
            patterns.append(f"{subject} {predicate.n3()} {target} .")
            subject = target
    return "SELECT * WHERE { " + " ".join(patterns) + " }"


def _best_time(evaluator_factory, query, reps: int):
    """Best-of-N wall clock with a fresh evaluator per run (cold plans)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        evaluator = evaluator_factory()
        start = time.perf_counter()
        result = evaluator.select(query)
        best = min(best, time.perf_counter() - start)
    return result, best


def test_compiled_join_speedup(benchmark):
    kg = generate_eurostat(n_observations=N_OBSERVATIONS, scale=0.4, seed=101)
    graph = kg.graph
    vgraph = VirtualSchemaGraph.bootstrap(kg.endpoint(), OBSERVATION_CLASS)
    query = parse_query(_chain_query(vgraph, n_chains=3))

    compiled_result, compiled_time = _best_time(
        lambda: Evaluator(graph, compile=True), query, N_REPETITIONS
    )
    legacy_result, legacy_time = _best_time(
        lambda: Evaluator(graph, compile=False), query, N_REPETITIONS
    )
    benchmark.pedantic(
        Evaluator(graph, compile=True).select, args=(query,), rounds=1, iterations=1
    )

    # Equivalence first: the compiled engine must not change semantics.
    assert compiled_result == legacy_result
    assert len(compiled_result) > 0

    speedup = legacy_time / compiled_time
    emit(
        "join_speedup",
        f"Compiled id-space joins vs term-space interpreter "
        f"({N_OBSERVATIONS} observations, {len(compiled_result)} rows, cold cache)",
        format_table(
            ["engine", "best time", "speedup"],
            [
                ["term-space interpreter", fmt_ms(legacy_time), "1.0x"],
                ["compiled id-space", fmt_ms(compiled_time), f"{speedup:.1f}x"],
            ],
        ),
    )
    emit_json(
        "join_speedup",
        {
            "benchmark": "join_speedup",
            "observations": N_OBSERVATIONS,
            "repetitions": N_REPETITIONS,
            "result_rows": len(compiled_result),
            "compiled_best_s": compiled_time,
            "legacy_best_s": legacy_time,
            "speedup": speedup,
            "advisory_target": MIN_SPEEDUP,
            "hard_floor": HARD_MIN_SPEEDUP,
        },
    )
    assert speedup >= HARD_MIN_SPEEDUP, (
        f"compiled execution only {speedup:.2f}x faster (hard floor: {HARD_MIN_SPEEDUP}x)"
    )
    if speedup < MIN_SPEEDUP:
        warnings.warn(
            f"compiled execution {speedup:.2f}x faster, under the {MIN_SPEEDUP}x "
            f"target — likely CI runner contention; re-run on a quiet machine",
            stacklevel=2,
        )
