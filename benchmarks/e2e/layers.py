"""Per-layer numbers of the traced run, named ``<module>.<what>``.

Each function turns what a pass recorded from outside a layer — spans, the
``/stats`` document before and after, durability counters — into metrics.
README.md lists, for every metric, the end-to-end metric and workload it
should move and where it should move nothing.
"""

from __future__ import annotations

import math
import statistics
import time

from repro.sparql.aggregator import compile_aggregate_ex
from repro.sparql.operators import compile_where
from repro.sparql.parser import parse_query
from repro.sparql.results import to_csv, to_sparql_json

from .spec import REFINE_KINDS
from .tracing import rank_layers, self_times

#: Distinct recorded queries replayed stage by stage (evenly spaced).
REPLAY_LIMIT = 40


def p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_metrics(result) -> dict:
    """core.* and store.* from the spans under the traced steps."""
    recorder = result.info["recorder"]
    stats_before = result.info["endpoint_before"]
    stats_after = result.info["endpoint_after"]
    durations: dict[str, list] = {}
    selfs: dict[str, list] = {}
    for tracer in result.tracers:
        own = self_times(tracer.spans)
        for span in tracer.spans:
            durations.setdefault(span[1], []).append(span[3] - span[2])
            selfs.setdefault(span[1], []).append(own[span[0]])

    def ms_p50(name: str) -> float:
        return p50(durations.get(name, ())) * 1e3

    synths = [s for s in result.steps if s.kind == "synthesize"]
    step_wall = sum(sum(v) for n, v in durations.items() if n.startswith("step:"))
    core_self = sum(sum(v) for n, v in selfs.items() if n.startswith("core."))
    select_busy = sum(durations.get("store.endpoint.select", ()))
    executions = fallbacks = 0
    for counter in ("fused_aggregates", "compiled_selects"):
        executions += getattr(stats_after, counter) - getattr(stats_before, counter)
    for counter in ("fallback_aggregates", "fallback_selects"):
        fallbacks += getattr(stats_after, counter) - getattr(stats_before, counter)
    tuple_runs = stats_after.tuple_executions - stats_before.tuple_executions
    metrics = {
        "core.reolap.synth_ms_p50": ms_p50("core.reolap.synthesize"),
        "core.reolap.self_ms_p50":
            p50(selfs.get("core.reolap.synthesize", ())) * 1e3,
        "core.reolap.asks_per_synth": _ratio(recorder.asks, len(synths)),
        "core.reolap.candidates_per_synth":
            _ratio(sum(s.rows for s in synths), len(synths)),
        "core.self_share": _ratio(core_self, step_wall),
        "store.endpoint.select_ms_p50": ms_p50("store.endpoint.select"),
        "store.endpoint.select_busy_s": select_busy,
        "store.endpoint.selects":
            float(len(durations.get("store.endpoint.select", ()))),
        "store.endpoint.ask_batch_ms_p50": ms_p50("store.endpoint.ask_batch"),
        "store.endpoint.asks": float(recorder.asks),
        "store.text_index.lookup_ms_p50": ms_p50("store.text_index.lookup"),
        "store.text_index.lookups":
            float(len(durations.get("store.text_index.lookup", ()))),
        "sparql.exec_rows_per_s": _ratio(recorder.rows, select_busy),
        "sparql.fallback_ratio":
            _ratio(fallbacks + tuple_runs, executions + fallbacks),
    }
    for kind in REFINE_KINDS:
        metrics[f"core.refine.{kind}.propose_ms_p50"] = ms_p50(
            f"core.refine.{kind}.propose")
        metrics[f"core.refine.{kind}.apply_ms_p50"] = ms_p50(
            f"core.refine.{kind}.apply")
    return metrics


def step_cover(result) -> float:
    """Share of the steps' wall time that the spans under them account for."""
    covered = wall = 0.0
    for tracer in result.tracers:
        own = self_times(tracer.spans)
        for span in tracer.spans:
            if span[1].startswith("step:"):
                wall += span[3] - span[2]
                covered += (span[3] - span[2]) - own[span[0]]
    return _ratio(covered, wall)


def ranking_table(result) -> list[dict]:
    """Layers by self time; span ids restart per tracer, so rank each apart."""
    merged: dict[str, list] = {}
    for tracer in result.tracers:
        for layer, seconds, count in rank_layers(tracer.spans):
            entry = merged.setdefault(layer, [0.0, 0])
            entry[0] += seconds
            entry[1] += count
    total = sum(seconds for seconds, _ in merged.values()) or 1.0
    return [
        {"layer": layer, "self_s": seconds, "share": seconds / total,
         "spans": count}
        for layer, (seconds, count) in sorted(
            merged.items(), key=lambda item: -item[1][0])
    ]


def replay(graph, endpoint, recorded: dict) -> dict:
    """Each distinct recorded SELECT, one stage at a time."""
    queries = list(recorded)
    stride = max(1, len(queries) // REPLAY_LIMIT)
    queries = queries[::stride][:REPLAY_LIMIT]
    clock = time.perf_counter
    parse, compile_, json_, csv_ = [], [], [], []
    total_bytes = total_rows = 0
    for query in queries:
        text = query if isinstance(query, str) else query.to_sparql()
        started = clock()
        parsed = parse_query(text)
        parse.append(clock() - started)
        started = clock()
        if parsed.is_aggregate_query:
            plan, reason = compile_aggregate_ex(graph, parsed)
        else:
            plan, reason = compile_where(graph, parsed.where)
        compile_.append(clock() - started)
        if plan is None:
            raise RuntimeError(f"replayed query did not compile: {reason}")
        answer = endpoint.select(parsed)
        started = clock()
        document = to_sparql_json(answer)
        json_.append(clock() - started)
        started = clock()
        to_csv(answer)
        csv_.append(clock() - started)
        total_bytes += len(document.encode("utf-8"))
        total_rows += len(answer)
    return {
        "sparql.parser.parse_ms_p50": p50(parse) * 1e3,
        "sparql.compile_ms_p50": p50(compile_) * 1e3,
        "sparql.results.json_ms_p50": p50(json_) * 1e3,
        "sparql.results.csv_ms_p50": p50(csv_) * 1e3,
        "sparql.results.bytes_per_row": _ratio(total_bytes, total_rows),
    }


def server_metrics(result, inproc_seconds: dict) -> dict:
    """serving.* / server.* from client spans, ``/stats`` deltas and probes.

    ``inproc_seconds`` maps ``(script, slot, attempt)`` to the in-process time of the
    same script step; the HTTP step's first occurrence minus that is what
    the request path adds to an uncached step.
    """
    before, after = result.info["stats_before"], result.info["stats_after"]

    def tier(name: str, counter: str) -> int:
        return (after["cache"].get(name, {}).get(counter, 0)
                - before["cache"].get(name, {}).get(counter, 0))

    def hit_ratio(name: str) -> float:
        hits = tier(name, "hits")
        return _ratio(hits, hits + tier(name, "misses"))

    def shed(document: dict) -> int:
        return sum(t.get("shed", 0) for t in document["tenants"].values())

    overheads = []
    seen = set()
    for step in sorted(result.steps, key=lambda s: s.started):
        key = (step.script, step.slot, step.attempt)
        if step.kind != "export" and key in inproc_seconds and key not in seen:
            seen.add(key)
            overheads.append(step.seconds - inproc_seconds[key])
    body_bytes = [step.nbytes for step in result.steps]
    busy = sum(step.seconds for step in result.steps)
    probes = result.info["probes"]
    return {
        "serving.cache.result_hit_ratio": hit_ratio("results"),
        "serving.cache.ast_hit_ratio": hit_ratio("asts"),
        "serving.cache.plan_hit_ratio": hit_ratio("plans"),
        "serving.cache.evictions": float(sum(
            tier(name, "evictions") for name in after["cache"])),
        "serving.executor.rejected": float(
            after["executor"]["rejected"] - before["executor"]["rejected"]),
        "server.tenancy.shed": float(shed(after) - shed(before)),
        "server.http.healthz_ms_p50": p50(probes["healthz"]) * 1e3,
        "server.sparql_cached_ms_p50": p50(probes["cached_ask"]) * 1e3,
        "server.response_bytes_p50": float(p50(body_bytes)),
        "server.response_mb_per_s": _ratio(sum(body_bytes) / 1e6, busy),
        "server.uncached_overhead_ms_p50": p50(overheads) * 1e3,
    }


def write_metrics(result) -> dict:
    """store.wal.* / store.durable.* from the durability counters."""
    write = result.info["write"]
    triples = write["acknowledged"]
    return {
        "store.wal.bytes_per_triple": _ratio(write["wal_bytes"], triples),
        "store.wal.syncs": float(write["wal_syncs"]),
        "store.durable.checkpoint_s_p50": p50(write["checkpoints"]),
        "store.durable.checkpoints": float(len(write["checkpoints"])),
        "store.durable.replayed_records": float(write["replayed_records"]),
        "store.durable.write_ack_ms_p50": p50(write["acks"]) * 1e3,
        "store.durable.write_ack_ms_p95": percentile(write["acks"], 0.95) * 1e3,
        "store.durable.ingest_triples_per_s": _ratio(triples, sum(write["acks"])),
        "store.durable.recovery_s": write["recovery_s"],
        "store.index.post_write_read_penalty_ms_p50":
            p50(write["penalties"]) * 1e3,
    }
