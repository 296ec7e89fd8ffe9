"""One measured run of one workload: the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the inputs from ``--seed``, sets the workload up (three times when
untraced; ``setup_s`` is the median), runs the measured phase, checks the
answers, and prints as the last line of standard output one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything it writes goes under ``--out`` (default ``.bench_e2e/`` in the
checkout); the run's work directory is removed before it returns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bootstrap_imports() -> None:
    """Pin the hash seed (dict/set orders then repeat) and find the sources."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"no program to measure: {ROOT}/src/repro is missing")
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_e2e"))
    parser.add_argument("--inputs-cache", default=None,
                        help="keep generated inputs here (shared between runs)")
    parser.add_argument("--toy", action="store_true",
                        help="toy-size data (the smoke test)")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="falsify one expected digest (shows a failing check)")
    return parser.parse_args(argv)


def measure(args: argparse.Namespace) -> dict:
    """Run the workload; returns the result document (also written to disk)."""
    from benchmarks.e2e import drivers, inputs, spec, workloads

    workload = spec.WORKLOADS[args.workload]
    units = workload.units(args.seconds)
    observations = workload.toy_observations if args.toy else workload.observations
    os.makedirs(args.out, exist_ok=True)
    work_dir = os.path.join(
        args.out, f"work-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    env = drivers.child_env()
    try:
        n_scripts = max(64, 2 * units) + spec.WARMUP_SCRIPTS
        inputs_dir, manifest = inputs.load_or_generate(
            args.inputs_cache or work_dir, workload, observations, args.seed,
            n_scripts, env)
        run = workloads.Run(workload, args.seed, args.seconds, inputs_dir,
                            manifest, work_dir, env)
        runner = _traced if args.trace else _untraced
        document = runner(run, units, args)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = document["metrics"]
    spec.check_emitted(metrics, "per_layer" if args.trace else "end_to_end")
    document.update({
        "workload": workload.name,
        "why": next(w["why"] for w in spec.declared()["workloads"]
                    if w["name"] == workload.name),
        "trace": bool(args.trace),
        "seed": args.seed,
        "seconds": args.seconds,
        "clients": workload.clients,
        "loop": "closed",
        "sizes": {
            "dataset": workload.dataset,
            "observations": manifest["observations"],
            "triples": manifest["triples"],
            "levels": manifest["levels"],
            "members": manifest["members"],
            "units": units,
        },
        "inputgen_s": manifest["inputgen_s"],
        "environment": environment(),
    })
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(args.out, f"result-{workload.name}{suffix}.json"),
              "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1)
    return document


def environment() -> dict:
    import numpy

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="ascii") as handle:
                    ref = handle.read().strip()
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def _summary(passes: list) -> dict:
    """attempted / failed over the passes' steps and their end checks."""
    attempted = failed = 0
    notes: list[str] = []
    for result in passes:
        attempted += len(result.steps) + result.checks_attempted
        bad = [s for s in result.steps if not s.ok]
        failed += len(bad) + len(result.failures)
        notes += [f"{s.kind}@script{s.script}: {s.note}" for s in bad]
        notes += result.failures
    return {"attempted": attempted, "failed": failed, "failures": notes[:20],
            "truncated": any(r.truncated for r in passes)}


def _step_counts(steps: list) -> dict:
    counts: dict[str, int] = {}
    for step in steps:
        counts[step.kind] = counts.get(step.kind, 0) + 1
    return counts


def _digests(steps: list) -> dict:
    return {f"{s.script}:{s.slot}:{s.kind}:{s.attempt}": s.digest
            for s in steps if s.digest}


def _end_to_end(result, setups: list, manifest: dict) -> dict:
    from benchmarks.e2e.layers import percentile

    seconds = [step.seconds for step in result.steps]
    synth = [step.seconds for step in result.steps if step.kind == "synthesize"]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "step_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "step_p95_ms": (percentile(seconds, 0.95) * 1e3, "ms"),
        "synth_p50_ms": (statistics.median(synth) * 1e3, "ms"),
        "steps_per_s": (result.operations / result.wall, "1/s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "snapshot_bytes_per_triple":
            (manifest["snapshot_bytes"] / manifest["triples"], "B"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(run, units: int, args) -> dict:
    from benchmarks.e2e import spec, workloads
    from repro.store import Graph

    name = run.workload.name
    if name == "explore_http":
        child, setups = workloads.repeat_setups(
            lambda: workloads.start_server(run), spec.SETUP_REPEATS)
        with child:
            result = workloads.http_pass(
                run, child, workloads.zipf_sessions(units))
        workloads.oracle_check(
            result, Graph.load_snapshot(run.snapshot_path), result.oracle)
    elif name == "write_mix":
        triples = workloads.load_triples(run)
        store, setups = workloads.repeat_setups(
            lambda: workloads.DurableStore(run, triples), spec.SETUP_REPEATS)
        result = workloads.write_pass(run, store, units)
        result.peak_rss_mb = _self_rss_mb()
    else:
        store, setups = workloads.repeat_setups(
            lambda: workloads.setup_inproc(run), spec.SETUP_REPEATS)
        result = workloads.script_pass(run, store, run.scripts[:units])
        result.peak_rss_mb = _self_rss_mb()
        workloads.oracle_check(result, store.graph, result.oracle)
    digests = _digests(result.steps)
    if args.corrupt_digest and digests:
        digests[sorted(digests)[0]] = "corrupted"
    document = _summary([result])
    document.update({
        "metrics": _end_to_end(result, setups, run.manifest),
        "samples": {"steps": len(result.steps), "setups": len(setups),
                    "operations": result.operations,
                    "by_kind": _step_counts(result.steps)},
        "measured_wall_s": result.wall,
        "digests": digests,
        "info": {k: v for k, v in result.info.items()
                 if k in ("client_cpu_share", "server_cpu_share")},
    })
    return document


def _traced(run, units: int, args) -> dict:
    """The per-layer run: the workload's own pass untraced and traced, then
    the other passes at probe size for the layers this workload bypasses."""
    from benchmarks.e2e import layers, spec, workloads
    from benchmarks.e2e.tracing import write_spans
    from repro.store import Graph

    name = run.workload.name
    clock = time.perf_counter
    metrics: dict[str, float] = {}

    # set-up, stage by stage, from the N-Triples file
    store = workloads.setup_inproc(run, stages=metrics)
    probe_snapshot = os.path.join(run.work_dir, "probe.snap")
    started = clock()
    store.graph.save_snapshot(probe_snapshot)
    metrics["store.snapshot.save_s"] = clock() - started
    started = clock()
    Graph.load_snapshot(probe_snapshot)
    metrics["store.snapshot.load_s"] = clock() - started

    def served_pass(sessions, traced):
        with workloads.start_server(run) as child:
            return workloads.http_pass(run, child, sessions, traced=traced)

    def written_pass(batches, traced):
        durable = workloads.DurableStore(run, workloads.load_triples(run))
        return workloads.write_pass(run, durable, batches, traced=traced)

    # the workload's own pass, untraced then traced; ``spans`` is the
    # in-process pass the core/store/sparql numbers come from, ``reference``
    # the in-process timing the HTTP overhead is measured against
    if name == "explore_http":
        sessions = workloads.zipf_sessions(units)
        untraced = served_pass(sessions, traced=False)
        native = served = served_pass(sessions, traced=True)
        spans = reference = workloads.script_pass(
            run, store, run.scripts[:spec.HTTP_POOL], traced=True)
        passes = [untraced, native, spans]
    elif name == "write_mix":
        untraced = written_pass(units, traced=False)
        native = spans = written = written_pass(units, traced=True)
        reference = workloads.script_pass(run, store, run.scripts[:3])
        passes = [untraced, native, reference]
    else:
        scripts = run.scripts[:units]
        untraced = reference = workloads.script_pass(run, store, scripts)
        native = spans = workloads.script_pass(
            run, store, scripts, traced=True, warm=False)
        passes = [untraced, native]
    if name != "explore_http":
        served = served_pass([0, 1, 2, 0, 1, 0], traced=True)
        passes.append(served)
    if name != "write_mix":
        written = written_pass(24, traced=True)
        passes.append(written)

    metrics.update(layers.span_metrics(spans))
    metrics.update(layers.replay(
        store.graph, store.endpoint, spans.info["recorder"].selects))
    metrics.update(layers.server_metrics(served, {
        (s.script, s.slot, s.attempt): s.seconds for s in reference.steps}))
    metrics.update(layers.write_metrics(written))
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.seconds for s in native.steps)
        / statistics.median(s.seconds for s in untraced.steps))

    write_spans(os.path.join(args.out, f"trace-{name}.jsonl"), native.tracers)
    units_of = {m["name"]: m["unit"] for m in spec.declared()["per_layer"]}
    document = _summary(passes)
    document.update({
        "metrics": {k: {"value": float(v), "unit": units_of.get(k, "?")}
                    for k, v in metrics.items()},
        "samples": {"steps": len(native.steps),
                    "by_kind": _step_counts(native.steps)},
        "ranking": layers.ranking_table(spans),
        "step_cover": layers.step_cover(spans),
    })
    return document


def result_line(document: dict) -> str:
    return json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["metrics"],
    })


def report(document: dict, out=sys.stdout) -> None:
    """Every metric by name, with unit and sample count, for people."""
    print(f"== {document['workload']} seed={document['seed']} "
          f"trace={int(document['trace'])}: {document['why']}", file=out)
    samples = document["samples"]
    for name, metric in document["metrics"].items():
        print(f"  {name:46s} {metric['value']:14.4f} {metric['unit']}", file=out)
    print(f"  samples: {samples}", file=out)
    print(f"  steps_attempted={document['attempted']} "
          f"steps_failed={document['failed']} "
          f"failed_ratio={document['failed'] / document['attempted']:.4f} "
          f"inputgen_s={document['inputgen_s']:.3f}", file=out)
    for note in document["failures"]:
        print(f"  FAILED {note}", file=out)
    for row in document.get("ranking", ()):
        print(f"  self time {row['layer']:28s} {row['self_s']:9.3f} s "
              f"{row['share'] * 100:5.1f}%  ({row['spans']} spans)", file=out)


def main(argv=None) -> int:
    args = parse_args(argv)
    _bootstrap_imports()
    document = measure(args)
    report(document)
    print(result_line(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
