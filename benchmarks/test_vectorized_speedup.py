"""Batched execution vs tuple-at-a-time over the compiled id-space engine.

PR 9's vectorized layer (repro.sparql.vectorized) executes compiled
plans block-at-a-time: the driving IndexScan emits integer-array batches
straight from the columnar run, probes gather via searchsorted, numeric
filters compare whole columns, and aggregate accumulators fold
``np.unique`` summaries instead of row loops.  This benchmark times both
executors over the same compiled plans with **cold caches**, so the
measured gap is pure execution discipline:

* **group-by rollup**: COUNT(*)/SUM per region over every observation —
  the REOLAP disaggregate workload, where batched group partitioning and
  bulk folds dominate.
* **filtered drill-down**: join two dimensions and a measure, numeric
  FILTER over the value — the decorated-query shape, where batched
  probes and the vectorized comparison dominate.

Result equivalence and a conservative wall-clock floor are hard
assertions; the >= 3x acceptance target is advisory (a warning) because
best-of-N ratios are noisy under shared-CI contention.  Sizes and bars
are environment-tunable::

    REPRO_BENCH_VEC_OBS=1000000 pytest benchmarks/test_vectorized_speedup.py
    REPRO_BENCH_VEC_HARD_MIN_SPEEDUP=3.0 pytest benchmarks/test_vectorized_speedup.py
"""

from __future__ import annotations

import os
import time
import warnings

from repro.rdf.terms import IRI, Literal, XSD_INTEGER
from repro.rdf.triple import Triple
from repro.sparql import Evaluator, parse_query
from repro.store.graph import Graph

from .helpers import RESULTS_DIR, emit, emit_json, fmt_ms, format_table

N_OBSERVATIONS = int(os.environ.get("REPRO_BENCH_VEC_OBS", "120000"))
N_REPETITIONS = int(os.environ.get("REPRO_BENCH_VEC_REPS", "3"))
#: Advisory target — a shortfall emits a warning, not a failure.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_VEC_MIN_SPEEDUP", "3.0"))
#: Hard floor — low enough that only a real regression (not runner
#: contention) can dip under it.
HARD_MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_VEC_HARD_MIN_SPEEDUP", "1.5"))

_EX = "http://example.org/cube/"
_REGION = IRI(_EX + "region")
_MONTH = IRI(_EX + "month")
_VALUE = IRI(_EX + "value")


def _dense_cube(n_observations: int) -> Graph:
    """A star cube with every observation carrying a measure, flushed so
    the columnar runs are pure and the driving scan engages.
    Deterministic modular mixing, no RNG.
    """
    graph = Graph()
    regions = [IRI(f"{_EX}region/R{i}") for i in range(20)]
    months = [IRI(f"{_EX}month/M{i:02d}") for i in range(12)]
    values = [
        Literal(str((i * 37) % 1000), datatype=XSD_INTEGER) for i in range(1000)
    ]
    add = graph.add
    for i in range(n_observations):
        obs = IRI(f"{_EX}obs/{i}")
        add(Triple(obs, _REGION, regions[(i * 7919) % len(regions)]))
        add(Triple(obs, _MONTH, months[(i * 104729) % len(months)]))
        add(Triple(obs, _VALUE, values[(i * 15485863) % len(values)]))
    graph.triple_index.flush()
    return graph


ROLLUP_QUERY = f"""
SELECT ?region (COUNT(*) AS ?n) (SUM(?v) AS ?total)
WHERE {{
  ?o <{_REGION.value}> ?region .
  ?o <{_VALUE.value}> ?v .
}}
GROUP BY ?region
"""

DRILLDOWN_QUERY = f"""
SELECT ?o ?region ?month ?v
WHERE {{
  ?o <{_REGION.value}> ?region .
  ?o <{_MONTH.value}> ?month .
  ?o <{_VALUE.value}> ?v .
  FILTER(?v >= 500)
}}
"""


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


def test_vectorized_speedup(benchmark):
    graph = _dense_cube(N_OBSERVATIONS)
    rollup = parse_query(ROLLUP_QUERY)
    drilldown = parse_query(DRILLDOWN_QUERY)

    # The compiled engine must actually engage for both shapes —
    # otherwise this measures the interpreter against itself.
    from repro.sparql.aggregator import compile_aggregate_ex
    from repro.sparql.operators import compile_where

    agg_plan, reason = compile_aggregate_ex(graph, rollup)
    assert agg_plan is not None, reason
    where_plan, reason = compile_where(graph, drilldown.where)
    assert where_plan is not None, reason

    roll_vec, roll_vec_time = _best_time(
        lambda: Evaluator(graph, compile=True, vectorize=True),
        rollup, N_REPETITIONS,
    )
    roll_tuple, roll_tuple_time = _best_time(
        lambda: Evaluator(graph, compile=True, vectorize=False),
        rollup, N_REPETITIONS,
    )
    drill_vec, drill_vec_time = _best_time(
        lambda: Evaluator(graph, compile=True, vectorize=True),
        drilldown, N_REPETITIONS,
    )
    drill_tuple, drill_tuple_time = _best_time(
        lambda: Evaluator(graph, compile=True, vectorize=False),
        drilldown, N_REPETITIONS,
    )
    benchmark.pedantic(
        Evaluator(graph, compile=True, vectorize=True).select, args=(rollup,),
        rounds=1, iterations=1,
    )

    # Equivalence first: the batched executor must not change semantics.
    assert sorted(map(tuple, roll_vec.rows)) == sorted(map(tuple, roll_tuple.rows))
    assert len(roll_vec) == 20
    assert drill_vec == drill_tuple
    assert len(drill_vec) > 0

    roll_speedup = roll_tuple_time / roll_vec_time
    drill_speedup = drill_tuple_time / drill_vec_time
    emit(
        "vectorized_speedup",
        f"Batched execution vs tuple-at-a-time compiled plans "
        f"({N_OBSERVATIONS} observations, cold cache)",
        format_table(
            ["query", "executor", "best time", "speedup"],
            [
                ["group-by rollup", "tuple", fmt_ms(roll_tuple_time), "1.0x"],
                ["group-by rollup", "batched", fmt_ms(roll_vec_time),
                 f"{roll_speedup:.1f}x"],
                ["filtered drill-down", "tuple", fmt_ms(drill_tuple_time), "1.0x"],
                ["filtered drill-down", "batched", fmt_ms(drill_vec_time),
                 f"{drill_speedup:.1f}x"],
            ],
        ),
    )
    json_path = emit_json(
        "vectorized",
        {
            "benchmark": "vectorized_speedup",
            "observations": N_OBSERVATIONS,
            "repetitions": N_REPETITIONS,
            "rollup": {
                "batched_best_s": roll_vec_time,
                "tuple_best_s": roll_tuple_time,
                "speedup": roll_speedup,
                "result_rows": len(roll_vec),
            },
            "drilldown": {
                "batched_best_s": drill_vec_time,
                "tuple_best_s": drill_tuple_time,
                "speedup": drill_speedup,
                "result_rows": len(drill_vec),
            },
            "advisory_target": MIN_SPEEDUP,
            "hard_floor": HARD_MIN_SPEEDUP,
        },
    )
    assert json_path.exists()
    assert json_path == RESULTS_DIR / "BENCH_vectorized.json"

    for label, speedup in (
        ("group-by rollup", roll_speedup),
        ("filtered drill-down", drill_speedup),
    ):
        assert speedup >= HARD_MIN_SPEEDUP, (
            f"{label} only {speedup:.2f}x faster (hard floor: "
            f"{HARD_MIN_SPEEDUP}x)"
        )
        if speedup < MIN_SPEEDUP:
            warnings.warn(
                f"{label} {speedup:.2f}x faster, under the {MIN_SPEEDUP}x "
                f"target — likely CI runner contention; re-run on a quiet "
                f"machine",
                stacklevel=2,
            )
