"""Scalability: REOLAP cost vs observation count (Section 5.3's claim).

The paper's central performance claim: REOLAP's "time complexity is
independent of the actual number of observations" — it scales with the
schema (|L|, |N_D|), which is why 15M-observation KGs answer in seconds.
This benchmark holds the Eurostat schema fixed and grows only the
observation count; synthesis time must grow far slower than the store
(sub-linear), while a full-scan control query grows linearly.  The
Virtual Schema Graph bootstrap must send the same queries at every size
(one per level, whatever the observation count) and its time may grow no
faster than the data: only its three observation scans are linear.
"""

import statistics

from repro.core import VirtualSchemaGraph, reolap
from repro.datasets import generate_eurostat
from repro.qb import OBSERVATION_CLASS

from .helpers import emit, fmt_ms, format_table, timed

OBSERVATION_COUNTS = (500, 2000, 8000)
EXAMPLES = [("Germany", "2010"), ("Asia",), ("France", "Male")]


#: Bootstraps per size; the fastest one is compared.
BOOTSTRAP_REPEATS = 3


def test_scalability_in_observations(benchmark):
    rows = []
    synth_means = {}
    scan_means = {}
    boot_times = {}
    boot_selects = {}
    triples = {}
    for n_obs in OBSERVATION_COUNTS:
        kg = generate_eurostat(n_observations=n_obs, scale=0.4, seed=77)
        triples[n_obs] = len(kg.graph)
        boot_times[n_obs] = float("inf")
        for _ in range(BOOTSTRAP_REPEATS):
            endpoint = kg.endpoint()
            vgraph, elapsed = timed(VirtualSchemaGraph.bootstrap, endpoint,
                                    OBSERVATION_CLASS)
            boot_times[n_obs] = min(boot_times[n_obs], elapsed)
            boot_selects[n_obs] = endpoint.stats.select_queries
        _ = endpoint.text_index

        times = []
        for example in EXAMPLES:
            _, elapsed = timed(reolap, endpoint, vgraph, example)
            times.append(elapsed)
        synth_means[n_obs] = statistics.mean(times)

        # Control: a query whose cost IS linear in the observations.
        _, scan_time = timed(
            endpoint.select,
            "SELECT (COUNT(?o) AS ?n) WHERE { ?o a "
            + OBSERVATION_CLASS.n3() + " . ?o ?p ?x }",
        )
        scan_means[n_obs] = scan_time
        rows.append([n_obs, len(kg.graph), fmt_ms(synth_means[n_obs]), fmt_ms(scan_time),
                     fmt_ms(boot_times[n_obs]), boot_selects[n_obs]])

    def rerun_largest():
        kg = generate_eurostat(n_observations=OBSERVATION_COUNTS[-1], scale=0.4, seed=77)
        endpoint = kg.endpoint()
        vgraph = VirtualSchemaGraph.bootstrap(endpoint, OBSERVATION_CLASS)
        return reolap(endpoint, vgraph, EXAMPLES[0])

    benchmark.pedantic(rerun_largest, rounds=1, iterations=1)

    emit(
        "scalability",
        "Scalability: REOLAP synthesis vs observation count (fixed schema)",
        format_table(
            ["observations", "triples", "mean REOLAP time", "full-scan control",
             "bootstrap", "bootstrap SELECTs"],
            rows,
        ),
    )
    growth = OBSERVATION_COUNTS[-1] / OBSERVATION_COUNTS[0]  # 16x data
    synth_growth = synth_means[OBSERVATION_COUNTS[-1]] / synth_means[OBSERVATION_COUNTS[0]]
    scan_growth = scan_means[OBSERVATION_COUNTS[-1]] / scan_means[OBSERVATION_COUNTS[0]]
    # Synthesis grows much slower than the data and than the scan control.
    assert synth_growth < growth / 2
    assert synth_growth < scan_growth
    # The bootstrap's queries follow the schema, its time at most the data.
    assert len(set(boot_selects.values())) == 1
    smallest, largest = OBSERVATION_COUNTS[0], OBSERVATION_COUNTS[-1]
    assert boot_times[largest] / boot_times[smallest] <= triples[largest] / triples[smallest]
