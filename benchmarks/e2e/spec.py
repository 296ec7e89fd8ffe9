"""What the benchmark runs: the four workloads, their sizes, the declared names.

Sizes are fixed here, not discovered at run time: a run does a *fixed amount
of work* for a given ``--seconds`` (``per_second`` units per measured second,
calibrated on the 2-core reference box so the measured phase lasts about
``--seconds``), so the same seed always drives the same scripts and the
exact counters repeat.  A faster program finishes the phase sooner; it is
never handed more work.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The refinement part of every script, in order (after synthesize, choose).
SCRIPT_KINDS = ("disaggregate", "disaggregate", "similarity", "topk",
                "percentile", "rollup")
REFINE_KINDS = ("disaggregate", "similarity", "topk", "percentile", "rollup")

#: Scripts whose answers are digested in every run, so the HTTP answers
#: can be compared with the in-process ones (the most repeated sessions).
HTTP_POOL = 12
WARMUP_SCRIPTS = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Steps re-executed on the tuple-at-a-time engine after the timed phase.
ORACLE_STEPS = 5
#: The measured phase stops handing out work after this multiple of
#: ``--seconds`` (a machine far slower than the reference box still ends).
OVERRUN = 2.5

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str  # generator in repro.datasets
    observations: int
    scale: float
    toy_observations: int
    #: units of work per measured second: scripts (in-process workloads),
    #: sessions (explore_http) or write batches (write_mix)
    per_second: float
    #: example-tuple sizes, cycled over the scripts
    sizes: tuple[int, ...]
    clients: int = 1
    one_to_n: bool = True  # every roll-up step is functional

    def units(self, seconds: float) -> int:
        return max(4, round(self.per_second * seconds))


# Eurostat sizes 1:2:3 in ratio 2:2:1; the DBpedia shape favours 2 and 3,
# where REOLAP has the most interpretations to validate.
_EUROSTAT_SIZES = (1, 2, 1, 2, 3)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("explore_inproc", "eurostat", 3000, 0.4, 300, 2.6,
                 _EUROSTAT_SIZES),
        Workload("explore_http", "eurostat", 3000, 0.4, 300, 4.6,
                 _EUROSTAT_SIZES, clients=2),
        Workload("members_dbpedia", "dbpedia", 1000, 0.05, 250, 2.8,
                 (2, 3, 2, 3, 1), one_to_n=False),
        Workload("write_mix", "eurostat", 2000, 0.4, 300, 17.0,
                 _EUROSTAT_SIZES),
    )
}

#: write_mix: share of the triple stream that seeds the store; the rest
#: arrives as batches of whole observations during the measured phase.
WRITE_SEED_SHARE = 0.7
WRITE_READS_PER_BATCH = 2
WRITE_CHECKPOINT_EVERY = 50


@functools.cache
def declared() -> dict:
    """``BENCHMARK.json`` with its names checked against the naming rule."""
    document = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"BENCHMARK.json: bad or repeated names {bad}")
    if set(w["name"] for w in document["workloads"]) != set(WORKLOADS):
        raise ValueError("BENCHMARK.json workloads differ from spec.WORKLOADS")
    return document


def check_emitted(metrics: dict, section: str) -> None:
    """Emitted names must equal the declared ones, with the declared units."""
    want = {m["name"]: m["unit"] for m in declared()[section]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise ValueError(
            f"{section}: not emitted {missing}, not declared {extra}, "
            f"unit differs {units}")
